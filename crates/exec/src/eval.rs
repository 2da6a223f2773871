//! Scalar and aggregate evaluation over physical rows.
//!
//! An operator binds each of its expressions once against its input's
//! column list ([`Bound::bind`]: column → row position, a missing column
//! is an error there, never a per-row NULL) and then evaluates the bound
//! form *by reference*: columns and literals are read in place, an owned
//! [`Value`] exists only for arithmetic and boolean results.

use crate::error::ExecError;
use cse_algebra::{AggFunc, ArithOp, CmpOp, ColRef, Scalar};
use cse_storage::Value;
use std::borrow::Cow;

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
            Scalar::Cmp(o, a, b) => Bound::Cmp(*o, bx(a)?, bx(b)?),
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
    pub fn truth(&self, row: &[Value]) -> Option<bool> {
        match self {
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

/// Running state of one aggregate.
#[derive(Debug, Clone)]
pub struct AggState {
    func: AggFunc,
    sum_f: f64,
    sum_i: i64,
    int_only: bool,
    count: i64,
    extreme: Option<Value>,
    saw_value: bool,
}

impl AggState {
    pub fn new(func: AggFunc) -> Self {
        AggState {
            func,
            sum_f: 0.0,
            sum_i: 0,
            int_only: true,
            count: 0,
            extreme: None,
            saw_value: false,
        }
    }

    pub fn update(&mut self, v: &Value) {
        match self.func {
            AggFunc::CountStar => self.count += 1,
            AggFunc::Count => {
                if !v.is_null() {
                    self.count += 1;
                }
            }
            AggFunc::Sum => {
                if v.is_null() {
                    return;
                }
                self.saw_value = true;
                match v {
                    // `sum_f` runs alongside, so an integer sum that
                    // leaves the i64 range carries on as a float.
                    Value::Int(i) => {
                        match self.sum_i.checked_add(*i) {
                            Some(s) => self.sum_i = s,
                            None => self.int_only = false,
                        }
                        self.sum_f += *i as f64;
                    }
                    _ => {
                        self.int_only = false;
                        if let Some(f) = v.as_f64() {
                            self.sum_f += f;
                        }
                    }
                }
            }
            AggFunc::Min | AggFunc::Max => {
                if v.is_null() {
                    return;
                }
                self.saw_value = true;
                let better = match &self.extreme {
                    None => true,
                    Some(cur) => {
                        let ord = v.total_cmp(cur);
                        match self.func {
                            AggFunc::Min => ord.is_lt(),
                            _ => ord.is_gt(),
                        }
                    }
                };
                if better {
                    self.extreme = Some(v.clone());
                }
            }
        }
    }

    pub fn finish(&self) -> Value {
        match self.func {
            AggFunc::Count | AggFunc::CountStar => Value::Int(self.count),
            AggFunc::Sum => {
                if !self.saw_value {
                    Value::Null
                } else if self.int_only {
                    Value::Int(self.sum_i)
                } else {
                    Value::Float(self.sum_f)
                }
            }
            AggFunc::Min | AggFunc::Max => self.extreme.clone().unwrap_or(Value::Null),
        }
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

    #[test]
    fn sum_mixed_promotes_to_float() {
        let mut sum = AggState::new(AggFunc::Sum);
        sum.update(&Value::Int(1));
        sum.update(&Value::Float(0.5));
        assert_eq!(sum.finish(), Value::Float(1.5));
    }
}
