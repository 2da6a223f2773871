//! Scalar and aggregate evaluation over physical rows.
//!
//! An operator binds each of its expressions once against its input's
//! column list ([`Bound::bind`]: column → row position, a missing column
//! is an error there, never a per-row NULL) and then evaluates the bound
//! form *by reference*: columns and literals are read in place, an owned
//! [`Value`] exists only for arithmetic results and for a boolean asked
//! for as a value ([`Bound::eval`] of a predicate); a predicate asked for
//! its truth ([`Bound::truth`]) makes none.
//!
//! Binding compiles `col op literal` and `literal op col` into one kernel,
//! [`Bound::CmpLit`]: an integer or a date against a literal of its own
//! class compares as machine integers, every other pair goes through
//! [`Value::sql_cmp`], so NULL, cross-class and INT/FLOAT answers are the
//! generic comparison's.
//!
//! An aggregate's running state ([`AggState`]) is one variant per
//! function, 24 bytes: a group table holds one per group and aggregate.

use crate::error::ExecError;
use cse_algebra::{AggFunc, ArithOp, CmpOp, ColRef, Scalar};
use cse_storage::Value;
use std::borrow::Cow;
use std::cmp::Ordering;

/// Row position of column `c` in `cols`; `op` names the operator asking.
pub(crate) fn position(cols: &[ColRef], c: ColRef, op: &str) -> Result<usize, ExecError> {
    cols.iter()
        .position(|x| *x == c)
        .ok_or_else(|| ExecError::MissingColumn(format!("{op}: column {c} not in input layout")))
}

/// A [`Scalar`] with every column resolved to a position in the rows of
/// one operator's input. Rows passed to [`Bound::eval`] must be as wide as
/// the column list it was bound against.
#[derive(Debug, Clone)]
pub enum Bound {
    Col(usize),
    Lit(Value),
    Cmp(CmpOp, Box<Bound>, Box<Bound>),
    /// `row[pos] op literal`; `literal op col` binds with the operator
    /// flipped.
    CmpLit(CmpOp, usize, Value),
    And(Vec<Bound>),
    Or(Vec<Bound>),
    Not(Box<Bound>),
    Arith(ArithOp, Box<Bound>, Box<Bound>),
    IsNull(Box<Bound>),
}

impl Bound {
    pub fn bind(s: &Scalar, cols: &[ColRef], op: &str) -> Result<Bound, ExecError> {
        let bx = |x: &Scalar| Bound::bind(x, cols, op).map(Box::new);
        let all = |xs: &[Scalar]| -> Result<Vec<Bound>, ExecError> {
            xs.iter().map(|x| Bound::bind(x, cols, op)).collect()
        };
        Ok(match s {
            Scalar::Col(c) => Bound::Col(position(cols, *c, op)?),
            Scalar::Lit(v) => Bound::Lit(v.clone()),
            Scalar::Cmp(o, a, b) => match (&**a, &**b) {
                (Scalar::Col(c), Scalar::Lit(v)) => {
                    Bound::CmpLit(*o, position(cols, *c, op)?, v.clone())
                }
                (Scalar::Lit(v), Scalar::Col(c)) => {
                    Bound::CmpLit(o.flipped(), position(cols, *c, op)?, v.clone())
                }
                _ => Bound::Cmp(*o, bx(a)?, bx(b)?),
            },
            Scalar::And(parts) => Bound::And(all(parts)?),
            Scalar::Or(parts) => Bound::Or(all(parts)?),
            Scalar::Not(x) => Bound::Not(bx(x)?),
            Scalar::Arith(o, a, b) => Bound::Arith(*o, bx(a)?, bx(b)?),
            Scalar::IsNull(x) => Bound::IsNull(bx(x)?),
        })
    }

    /// Evaluate over one row; columns and literals are borrowed.
    #[expect(
        clippy::indexing_slicing,
        reason = "a column index was resolved by position() against the layout of the rows it is evaluated over"
    )]
    pub fn eval<'a>(&'a self, row: &'a [Value]) -> Cow<'a, Value> {
        match self {
            Bound::Col(i) => Cow::Borrowed(&row[*i]),
            Bound::Lit(v) => Cow::Borrowed(v),
            Bound::Arith(op, a, b) => Cow::Owned(op.apply(&a.eval(row), &b.eval(row))),
            _ => Cow::Owned(self.truth(row).map_or(Value::Null, Value::Bool)),
        }
    }

    /// Three-valued truth of the expression: `None` is SQL unknown (NULL,
    /// or a non-boolean value where a boolean is expected).
    #[expect(
        clippy::indexing_slicing,
        reason = "a column index was resolved by position() against the layout of the rows it is evaluated over"
    )]
    pub(crate) fn truth(&self, row: &[Value]) -> Option<bool> {
        match self {
            Bound::CmpLit(op, i, lit) => match (&row[*i], lit) {
                (Value::Int(a), Value::Int(b)) => Some(op.holds(a.cmp(b))),
                (Value::Date(a), Value::Date(b)) => Some(op.holds(a.cmp(b))),
                (v, lit) => v.sql_cmp(lit).map(|ord| op.holds(ord)),
            },
            Bound::Cmp(op, a, b) => a.eval(row).sql_cmp(&b.eval(row)).map(|ord| op.holds(ord)),
            // Three-valued AND: false dominates, then unknown.
            Bound::And(parts) => {
                let mut unknown = false;
                for p in parts {
                    match p.truth(row) {
                        Some(false) => return Some(false),
                        Some(true) => {}
                        None => unknown = true,
                    }
                }
                (!unknown).then_some(true)
            }
            Bound::Or(parts) => {
                let mut unknown = false;
                for p in parts {
                    match p.truth(row) {
                        Some(true) => return Some(true),
                        Some(false) => {}
                        None => unknown = true,
                    }
                }
                (!unknown).then_some(false)
            }
            Bound::Not(x) => x.truth(row).map(|b| !b),
            Bound::IsNull(x) => Some(x.eval(row).is_null()),
            Bound::Col(_) | Bound::Lit(_) | Bound::Arith(..) => self.eval(row).as_bool(),
        }
    }

    /// Does the predicate accept this row (SQL semantics: NULL rejects)?
    pub fn accepts(&self, row: &[Value]) -> bool {
        self.truth(row) == Some(true)
    }
}

/// Running state of one aggregate, one variant per function. A group
/// table holds one per group and aggregate, so its size is the table's
/// bytes per group: 24, where one struct of every function's fields took
/// 48.
#[derive(Debug, Clone)]
pub enum AggState {
    Count(i64),
    CountStar(i64),
    /// `sum_f` runs alongside `sum_i`, so an integer sum that leaves the
    /// i64 range carries on as a float. `int_only` is `None` until a
    /// value is seen, then whether every value was an integer and every
    /// partial sum fitted.
    Sum {
        sum_f: f64,
        sum_i: i64,
        int_only: Option<bool>,
    },
    Min(Option<Value>),
    Max(Option<Value>),
}

const _: () = assert!(std::mem::size_of::<AggState>() <= 24);

impl AggState {
    pub fn new(func: AggFunc) -> Self {
        match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::CountStar => AggState::CountStar(0),
            AggFunc::Sum => AggState::Sum {
                sum_f: 0.0,
                sum_i: 0,
                int_only: None,
            },
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
        }
    }

    /// Fold one value in. Inlined into a group table's row loop, which
    /// calls it once per row and aggregate.
    #[inline(always)]
    pub fn update(&mut self, v: &Value) {
        match self {
            AggState::CountStar(n) => *n += 1,
            AggState::Count(n) => {
                if !v.is_null() {
                    *n += 1;
                }
            }
            AggState::Sum {
                sum_f,
                sum_i,
                int_only,
            } => match v {
                Value::Null => {}
                Value::Int(i) => {
                    let fits = match sum_i.checked_add(*i) {
                        Some(s) => {
                            *sum_i = s;
                            true
                        }
                        None => false,
                    };
                    *int_only = Some(fits && int_only.unwrap_or(true));
                    *sum_f += *i as f64;
                }
                _ => {
                    *int_only = Some(false);
                    if let Some(f) = v.as_f64() {
                        *sum_f += f;
                    }
                }
            },
            AggState::Min(extreme) => keep_extreme(extreme, v, Ordering::is_lt),
            AggState::Max(extreme) => keep_extreme(extreme, v, Ordering::is_gt),
        }
    }

    pub fn finish(&self) -> Value {
        match self {
            AggState::Count(n) | AggState::CountStar(n) => Value::Int(*n),
            AggState::Sum {
                sum_f,
                sum_i,
                int_only,
            } => match int_only {
                None => Value::Null,
                Some(true) => Value::Int(*sum_i),
                Some(false) => Value::Float(*sum_f),
            },
            AggState::Min(extreme) | AggState::Max(extreme) => {
                extreme.clone().unwrap_or(Value::Null)
            }
        }
    }
}

/// Replace `extreme` by the non-NULL `v` if there is none yet or `v`
/// orders `better` against it.
#[inline(always)]
fn keep_extreme(extreme: &mut Option<Value>, v: &Value, better: fn(Ordering) -> bool) {
    if v.is_null() {
        return;
    }
    if extreme.as_ref().is_none_or(|cur| better(v.total_cmp(cur))) {
        *extreme = Some(v.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cse_algebra::RelId;

    fn layout2() -> Vec<ColRef> {
        vec![ColRef::new(RelId(0), 0), ColRef::new(RelId(0), 1)]
    }

    fn arith_lit(op: ArithOp, a: Value, b: Value) -> Value {
        let s = Scalar::Arith(op, Box::new(Scalar::Lit(a)), Box::new(Scalar::Lit(b)));
        Bound::bind(&s, &[], "test").unwrap().eval(&[]).into_owned()
    }

    #[test]
    fn col_and_cmp() {
        let l = layout2();
        let row = vec![Value::Int(5), Value::Int(9)];
        let p = Scalar::cmp(
            CmpOp::Lt,
            Scalar::col(RelId(0), 0),
            Scalar::col(RelId(0), 1),
        );
        assert!(Bound::bind(&p, &l, "test").unwrap().accepts(&row));
        let q = Scalar::eq(Scalar::col(RelId(0), 0), Scalar::int(5));
        assert!(Bound::bind(&q, &l, "test").unwrap().accepts(&row));
    }

    #[test]
    fn null_rejects() {
        let l = layout2();
        let row = vec![Value::Null, Value::Int(9)];
        let p = Scalar::cmp(CmpOp::Lt, Scalar::col(RelId(0), 0), Scalar::int(10));
        assert!(!Bound::bind(&p, &l, "test").unwrap().accepts(&row));
    }

    #[test]
    fn unknown_column_is_a_bind_error() {
        let p = Scalar::eq(Scalar::col(RelId(7), 3), Scalar::int(1));
        let err = Bound::bind(&p, &layout2(), "Filter").unwrap_err();
        assert_eq!(
            err,
            ExecError::MissingColumn(format!(
                "Filter: column {} not in input layout",
                ColRef::new(RelId(7), 3)
            ))
        );
    }

    #[test]
    fn three_valued_and_or() {
        let l = layout2();
        let row = vec![Value::Null, Value::Int(9)];
        let isnull = Scalar::cmp(CmpOp::Eq, Scalar::col(RelId(0), 0), Scalar::int(1));
        let true_p = Scalar::cmp(CmpOp::Lt, Scalar::col(RelId(0), 1), Scalar::int(10));
        let eval = |s: &Scalar| Bound::bind(s, &l, "test").unwrap().eval(&row).into_owned();
        // unknown AND true = unknown
        assert_eq!(
            eval(&Scalar::and([isnull.clone(), true_p.clone()])),
            Value::Null
        );
        // unknown OR true = true
        assert_eq!(eval(&Scalar::or([isnull, true_p])), Value::Bool(true));
    }

    #[test]
    fn arithmetic() {
        let int = Value::Int;
        assert_eq!(arith_lit(ArithOp::Add, int(2), int(3)), int(5));
        assert_eq!(arith_lit(ArithOp::Div, int(7), int(2)), Value::Float(3.5));
        assert_eq!(arith_lit(ArithOp::Div, int(7), int(0)), Value::Null);
    }

    #[test]
    fn integer_overflow_promotes_to_float() {
        let int = Value::Int;
        assert_eq!(
            arith_lit(ArithOp::Add, int(i64::MAX), int(1)),
            Value::Float(i64::MAX as f64 + 1.0)
        );
        assert_eq!(
            arith_lit(ArithOp::Sub, int(i64::MIN), int(1)),
            Value::Float(i64::MIN as f64 - 1.0)
        );
        assert_eq!(
            arith_lit(ArithOp::Mul, int(i64::MAX), int(2)),
            Value::Float(i64::MAX as f64 * 2.0)
        );
        // In-range results stay integral.
        assert_eq!(arith_lit(ArithOp::Mul, int(1 << 31), int(2)), int(1 << 32));
    }

    #[test]
    fn sum_crossing_i64_max_promotes_to_float() {
        let mut sum = AggState::new(AggFunc::Sum);
        for v in [i64::MAX - 1, 1] {
            sum.update(&Value::Int(v));
        }
        assert_eq!(sum.finish(), Value::Int(i64::MAX));
        sum.update(&Value::Int(5));
        assert_eq!(sum.finish(), Value::Float(i64::MAX as f64 + 5.0));
        // ... and keeps accumulating as a float afterwards.
        sum.update(&Value::Int(-10));
        assert!(matches!(sum.finish(), Value::Float(_)));
    }

    #[test]
    fn agg_sum_and_count() {
        let mut sum = AggState::new(AggFunc::Sum);
        let mut cnt = AggState::new(AggFunc::Count);
        for v in [Value::Int(1), Value::Null, Value::Int(4)] {
            sum.update(&v);
            cnt.update(&v);
        }
        assert_eq!(sum.finish(), Value::Int(5));
        assert_eq!(cnt.finish(), Value::Int(2));
    }

    #[test]
    fn agg_min_max_empty() {
        let mut mn = AggState::new(AggFunc::Min);
        assert_eq!(mn.finish(), Value::Null);
        mn.update(&Value::Int(3));
        mn.update(&Value::Int(-2));
        assert_eq!(mn.finish(), Value::Int(-2));
        let mut mx = AggState::new(AggFunc::Max);
        mx.update(&Value::Float(1.5));
        mx.update(&Value::Float(7.25));
        assert_eq!(mx.finish(), Value::Float(7.25));
    }

    /// Values that stress the kernel: NULL, integers around the edges of
    /// f64's exact range and of i64, signed zero, NaN and infinities, and
    /// one value of each other class.
    fn kernel_values() -> Vec<Value> {
        let big = 1_i64 << 53;
        let mut vals = vec![Value::Null];
        vals.extend(
            [
                0,
                1,
                -1,
                big + 1,
                big - 1,
                -(big + 1),
                -(big - 1),
                i64::MIN,
                i64::MAX,
            ]
            .map(Value::Int),
        );
        vals.extend([-0.0, 0.5, 3.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY].map(Value::Float));
        vals.extend([
            Value::Date(0),
            Value::Date(9_000),
            Value::str("abc"),
            Value::Bool(true),
        ]);
        vals
    }

    #[test]
    fn cmp_kernel_equals_generic_comparison() {
        let col = Scalar::col(RelId(0), 0);
        let l = [ColRef::new(RelId(0), 0)];
        let ops = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        let vals = kernel_values();
        for op in ops {
            for a in &vals {
                for b in &vals {
                    let generic = |x: &Value, y: &Value| x.sql_cmp(y).map(|o| op.holds(o));
                    let row = [a.clone()];
                    // `a op b` with the column on the left, then `b op a`
                    // with the literal on the left.
                    let shapes = [
                        (
                            Scalar::cmp(op, col.clone(), Scalar::Lit(b.clone())),
                            generic(a, b),
                        ),
                        (
                            Scalar::cmp(op, Scalar::Lit(b.clone()), col.clone()),
                            generic(b, a),
                        ),
                    ];
                    for (s, want) in shapes {
                        let bound = Bound::bind(&s, &l, "test").unwrap();
                        assert!(
                            matches!(bound, Bound::CmpLit(..)),
                            "{s:?} binds to {bound:?}"
                        );
                        assert_eq!(bound.truth(&row), want, "{s:?} over {a:?}");
                    }
                }
            }
        }
    }

    /// The aggregate state as one struct of every function's fields: the
    /// reference the compact states are checked against.
    struct WideAgg {
        func: AggFunc,
        sum_f: f64,
        sum_i: i64,
        int_only: bool,
        count: i64,
        extreme: Option<Value>,
        saw_value: bool,
    }

    impl WideAgg {
        fn new(func: AggFunc) -> Self {
            WideAgg {
                func,
                sum_f: 0.0,
                sum_i: 0,
                int_only: true,
                count: 0,
                extreme: None,
                saw_value: false,
            }
        }

        fn update(&mut self, v: &Value) {
            if self.func == AggFunc::CountStar {
                self.count += 1;
                return;
            }
            if v.is_null() {
                return;
            }
            self.saw_value = true;
            self.count += 1;
            if let Value::Int(i) = v {
                match self.sum_i.checked_add(*i) {
                    Some(s) => self.sum_i = s,
                    None => self.int_only = false,
                }
            } else {
                self.int_only = false;
            }
            if let Some(f) = v.as_f64() {
                self.sum_f += f;
            }
            let better = match &self.extreme {
                None => true,
                Some(cur) if self.func == AggFunc::Min => v.total_cmp(cur).is_lt(),
                Some(cur) => v.total_cmp(cur).is_gt(),
            };
            if better {
                self.extreme = Some(v.clone());
            }
        }

        fn finish(&self) -> Value {
            match self.func {
                AggFunc::Count | AggFunc::CountStar => Value::Int(self.count),
                AggFunc::Sum if !self.saw_value => Value::Null,
                AggFunc::Sum if self.int_only => Value::Int(self.sum_i),
                AggFunc::Sum => Value::Float(self.sum_f),
                AggFunc::Min | AggFunc::Max => self.extreme.clone().unwrap_or(Value::Null),
            }
        }
    }

    #[test]
    fn compact_agg_states_fold_like_the_wide_reference() {
        let mut rng = cse_storage::testkit::TestRng::new(46);
        let funcs = [
            AggFunc::Count,
            AggFunc::CountStar,
            AggFunc::Sum,
            AggFunc::Min,
            AggFunc::Max,
        ];
        for case in 0..400 {
            // Every fourth stream is all NULL, every fifth empty.
            let len = if case % 5 == 0 {
                0
            } else {
                rng.range_usize(1, 40)
            };
            let stream: Vec<Value> = (0..len)
                .map(|_| match rng.range_usize(0, 6) {
                    _ if case % 4 == 0 => Value::Null,
                    0 => Value::Null,
                    1 => Value::Int(i64::MAX - rng.range_i64(0, 4)),
                    2 => Value::Int(rng.range_i64(-1_000, 1_000)),
                    3 => Value::Int(i64::MIN + rng.range_i64(0, 4)),
                    4 => Value::Float(rng.range_f64(-1e3, 1e3)),
                    _ => Value::Float(*rng.pick(&[-0.0, f64::NAN, f64::INFINITY, 0.5])),
                })
                .collect();
            for func in funcs {
                let (mut compact, mut wide) = (AggState::new(func), WideAgg::new(func));
                // Equal as values and of one class: `==` alone takes the
                // integer 3 for the float 3.0.
                let same = |a: Value, b: Value| a.data_type() == b.data_type() && a == b;
                assert!(same(compact.finish(), wide.finish()), "{func:?} of nothing");
                for (i, v) in stream.iter().enumerate() {
                    compact.update(v);
                    wide.update(v);
                    let (got, want) = (compact.finish(), wide.finish());
                    assert!(
                        same(got.clone(), want.clone()),
                        "case {case}: {func:?} of {:?} is {got:?}, not {want:?}",
                        &stream[..=i]
                    );
                }
            }
        }
    }

    #[test]
    fn sum_mixed_promotes_to_float() {
        let mut sum = AggState::new(AggFunc::Sum);
        sum.update(&Value::Int(1));
        sum.update(&Value::Float(0.5));
        assert_eq!(sum.finish(), Value::Float(1.5));
    }
}
