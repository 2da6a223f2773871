//! Predicate selectivity estimation.

use crate::cardinality::{col_ndv, col_stats, rel_rows};
use cse_algebra::{CmpOp, ColRef, PlanContext, Scalar};
use cse_storage::{Catalog, Value};

/// Default selectivity for predicates the estimator cannot analyze.
pub const DEFAULT_SEL: f64 = 1.0 / 3.0;
/// Default equality selectivity without statistics.
pub const DEFAULT_EQ_SEL: f64 = 0.1;

/// Estimator bundling the plan context and the catalog whose statistics
/// it reads.
pub struct Selectivity<'a> {
    pub ctx: &'a PlanContext,
    pub catalog: &'a Catalog,
}

impl<'a> Selectivity<'a> {
    pub fn new(ctx: &'a PlanContext, catalog: &'a Catalog) -> Self {
        Selectivity { ctx, catalog }
    }

    /// Selectivity of an arbitrary predicate (in [0, 1]).
    pub fn of(&self, pred: &Scalar) -> f64 {
        match pred {
            Scalar::And(parts) => parts.iter().map(|p| self.of(p)).product(),
            Scalar::Or(parts) => {
                if parts.is_empty() {
                    return 0.0; // empty disjunction is FALSE
                }
                // Independence assumption: 1 - Π(1 - s_i).
                let miss: f64 = parts.iter().map(|p| 1.0 - self.of(p)).product();
                (1.0 - miss).clamp(0.0, 1.0)
            }
            Scalar::Not(inner) => 1.0 - self.of(inner),
            Scalar::Cmp(op, a, b) => self.cmp_selectivity(*op, a, b),
            Scalar::Lit(Value::Bool(true)) => 1.0,
            Scalar::Lit(Value::Bool(false)) => 0.0,
            Scalar::IsNull(inner) => {
                if let Scalar::Col(c) = inner.as_ref() {
                    if let Some(s) = col_stats(self.catalog, self.ctx, *c) {
                        let rows = rel_rows(self.catalog, self.ctx, c.rel);
                        return (s.null_count as f64 / rows).clamp(0.0, 1.0);
                    }
                }
                0.05
            }
            _ => DEFAULT_SEL,
        }
    }

    fn cmp_selectivity(&self, op: CmpOp, a: &Scalar, b: &Scalar) -> f64 {
        // Column vs column: equijoin-style local selectivity.
        if let (Scalar::Col(x), Scalar::Col(y)) = (a, b) {
            let ndx = col_ndv(self.catalog, self.ctx, *x);
            let ndy = col_ndv(self.catalog, self.ctx, *y);
            return match op {
                CmpOp::Eq => 1.0 / ndx.max(ndy),
                CmpOp::Ne => 1.0 - 1.0 / ndx.max(ndy),
                _ => DEFAULT_SEL,
            };
        }
        // Column vs literal, the column on the left.
        match (a, b) {
            (Scalar::Col(col), Scalar::Lit(lit)) => self.col_vs_lit(*col, op, lit),
            (Scalar::Lit(lit), Scalar::Col(col)) => self.col_vs_lit(*col, op.flipped(), lit),
            _ => DEFAULT_SEL,
        }
    }

    fn col_vs_lit(&self, col: ColRef, op: CmpOp, lit: &Value) -> f64 {
        let stats = match col_stats(self.catalog, self.ctx, col) {
            Some(s) => s,
            None => {
                return match op {
                    CmpOp::Eq => DEFAULT_EQ_SEL,
                    CmpOp::Ne => 1.0 - DEFAULT_EQ_SEL,
                    _ => DEFAULT_SEL,
                }
            }
        };
        let ndv = (stats.distinct as f64).max(1.0);
        match op {
            CmpOp::Eq => (1.0 / ndv).min(1.0),
            CmpOp::Ne => (1.0 - 1.0 / ndv).max(0.0),
            CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
                let (lo, hi, v) = match (
                    stats.min.as_ref().and_then(Value::as_f64),
                    stats.max.as_ref().and_then(Value::as_f64),
                    lit.as_f64(),
                ) {
                    (Some(lo), Some(hi), Some(v)) => (lo, hi, v),
                    _ => return DEFAULT_SEL,
                };
                if hi <= lo {
                    return DEFAULT_SEL;
                }
                let frac_below = ((v - lo) / (hi - lo)).clamp(0.0, 1.0);
                match op {
                    CmpOp::Lt | CmpOp::Le => frac_below,
                    _ => 1.0 - frac_below,
                }
            }
        }
        .clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cse_storage::DataType::Int;

    /// `t(a, b)`: 100 rows, `a` in 0..99 and `b` in 0..9.
    fn setup() -> (PlanContext, Catalog, cse_algebra::RelId) {
        let rows = (0..100).map(|i| [Value::Int(i), Value::Int(i % 10)]);
        crate::one_table(&[("a", Int), ("b", Int)], rows)
    }

    #[test]
    fn range_selectivity() {
        let (ctx, stats, r) = setup();
        let sel = Selectivity::new(&ctx, &stats);
        // a in [0,99]; a < 50 ≈ 0.5
        let p = Scalar::cmp(CmpOp::Lt, Scalar::col(r, 0), Scalar::int(50));
        let s = sel.of(&p);
        assert!((0.45..0.56).contains(&s), "{s}");
    }

    #[test]
    fn equality_uses_ndv() {
        let (ctx, stats, r) = setup();
        let sel = Selectivity::new(&ctx, &stats);
        let p = Scalar::eq(Scalar::col(r, 1), Scalar::int(3));
        let s = sel.of(&p);
        assert!((s - 0.1).abs() < 1e-9, "{s}"); // 10 distinct values
    }

    #[test]
    fn and_multiplies_or_unions() {
        let (ctx, stats, r) = setup();
        let sel = Selectivity::new(&ctx, &stats);
        let lt = Scalar::cmp(CmpOp::Lt, Scalar::col(r, 0), Scalar::int(50));
        let both = Scalar::and([lt.clone(), lt.clone()]);
        let either = Scalar::or([lt.clone(), lt.clone()]);
        assert!(sel.of(&both) < sel.of(&lt));
        assert!(sel.of(&either) > sel.of(&lt));
        assert!(sel.of(&either) <= 1.0);
    }

    #[test]
    fn true_and_false() {
        let (ctx, stats, _) = setup();
        let sel = Selectivity::new(&ctx, &stats);
        assert_eq!(sel.of(&Scalar::true_()), 1.0);
        assert_eq!(sel.of(&Scalar::Or(vec![])), 0.0);
    }

    #[test]
    fn not_inverts() {
        let (ctx, stats, r) = setup();
        let sel = Selectivity::new(&ctx, &stats);
        let p = Scalar::cmp(CmpOp::Lt, Scalar::col(r, 0), Scalar::int(30));
        let n = Scalar::Not(Box::new(p.clone()));
        assert!((sel.of(&p) + sel.of(&n) - 1.0).abs() < 1e-9);
    }
}
