//! Aggregation functions and expressions.

use crate::scalar::Scalar;
use std::fmt;

/// Supported aggregation functions. `Avg` is decomposed into `Sum`/`Count`
/// at lowering time so every function here rolls up losslessly (needed for
/// re-aggregation on top of a covering subexpression).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AggFunc {
    Sum,
    Count,
    CountStar,
    Min,
    Max,
}

impl AggFunc {
    /// The function used to combine partial results of this function
    /// (re-aggregation over a coarser group-by): SUM and COUNT combine with
    /// SUM, MIN/MAX with themselves.
    pub fn rollup(&self) -> AggFunc {
        match self {
            AggFunc::Sum | AggFunc::Count | AggFunc::CountStar => AggFunc::Sum,
            AggFunc::Min => AggFunc::Min,
            AggFunc::Max => AggFunc::Max,
        }
    }

    /// Is [`AggFunc::rollup`] over *no* partial results what the function
    /// returns over no rows? Not for the counts — COUNT of nothing is 0,
    /// the SUM of no partial counts is NULL — so a scalar aggregate, which
    /// answers no rows with one, cannot be staged if it counts.
    pub fn rolls_up_from_nothing(&self) -> bool {
        !matches!(self, AggFunc::Count | AggFunc::CountStar)
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Sum => "SUM",
            AggFunc::Count => "COUNT",
            AggFunc::CountStar => "COUNT(*)",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        };
        f.write_str(s)
    }
}

/// One aggregation expression, e.g. `SUM(l_extendedprice * (1 - l_discount))`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AggExpr {
    pub func: AggFunc,
    /// `None` only for `CountStar`.
    pub arg: Option<Scalar>,
}

impl AggExpr {
    pub fn new(func: AggFunc, arg: Scalar) -> Self {
        debug_assert!(func != AggFunc::CountStar);
        AggExpr {
            func,
            arg: Some(arg),
        }
    }

    pub fn count_star() -> Self {
        AggExpr {
            func: AggFunc::CountStar,
            arg: None,
        }
    }

    pub fn sum(arg: Scalar) -> Self {
        AggExpr::new(AggFunc::Sum, arg)
    }

    pub fn min(arg: Scalar) -> Self {
        AggExpr::new(AggFunc::Min, arg)
    }

    pub fn max(arg: Scalar) -> Self {
        AggExpr::new(AggFunc::Max, arg)
    }

    /// Canonical form (normalizes the argument).
    pub fn normalize(&self) -> AggExpr {
        AggExpr {
            func: self.func,
            arg: self.arg.as_ref().map(Scalar::normalize),
        }
    }

    /// The aggregation that re-aggregates partial results stored in
    /// `partial_col` (used both for eager aggregation and for computing a
    /// consumer's result from a covering subexpression).
    pub fn rollup_over(&self, partial_col: Scalar) -> AggExpr {
        AggExpr {
            func: self.func.rollup(),
            arg: Some(partial_col),
        }
    }

    /// Rewrite the argument's column references.
    pub fn rewrite_cols(&self, map: &impl Fn(crate::ids::ColRef) -> Scalar) -> AggExpr {
        AggExpr {
            func: self.func,
            arg: self.arg.as_ref().map(|a| a.rewrite_cols(map)),
        }
    }
}

impl fmt::Display for AggExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.func, &self.arg) {
            (AggFunc::CountStar, _) => write!(f, "COUNT(*)"),
            (func, Some(a)) => write!(f, "{func}({a})"),
            (func, None) => write!(f, "{func}(?)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::RelId;

    #[test]
    fn rollup_functions() {
        assert_eq!(AggFunc::Sum.rollup(), AggFunc::Sum);
        assert_eq!(AggFunc::Count.rollup(), AggFunc::Sum);
        assert_eq!(AggFunc::CountStar.rollup(), AggFunc::Sum);
        assert_eq!(AggFunc::Min.rollup(), AggFunc::Min);
        assert_eq!(AggFunc::Max.rollup(), AggFunc::Max);
    }

    #[test]
    fn rollup_over_builds_sum_of_partials() {
        let a = AggExpr::count_star();
        let r = a.rollup_over(Scalar::col(RelId(7), 0));
        assert_eq!(r.func, AggFunc::Sum);
        assert_eq!(r.arg, Some(Scalar::col(RelId(7), 0)));
    }

    #[test]
    fn display() {
        assert_eq!(
            AggExpr::sum(Scalar::col(RelId(0), 3)).to_string(),
            "SUM(r0.3)"
        );
        assert_eq!(AggExpr::count_star().to_string(), "COUNT(*)");
    }
}
