//! Logical plan trees (the lowering target of the SQL front end and the
//! representation of covering-subexpression definitions).
//!
//! Internal operators reference columns by global [`ColRef`]; `Project`
//! appears only at query roots to name and order the delivered columns.

use crate::agg::AggExpr;
use crate::context::PlanContext;
use crate::ids::{ColRef, RelId, RelSet};
use crate::scalar::Scalar;
use std::fmt::Write as _;

/// Sort direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SortOrder {
    Asc,
    Desc,
}

/// A logical query plan.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Scan of a table instance.
    Get { rel: RelId },
    /// Row filter.
    Filter {
        input: Box<LogicalPlan>,
        pred: Scalar,
    },
    /// Inner join (cross join when `pred` is TRUE).
    Join {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
        pred: Scalar,
    },
    /// Group-by + aggregation. `out` is the synthetic rel whose columns are
    /// the aggregation results; the grouping keys keep their original
    /// global identities in the output.
    Aggregate {
        input: Box<LogicalPlan>,
        keys: Vec<ColRef>,
        aggs: Vec<AggExpr>,
        out: RelId,
    },
    /// Final projection: named output expressions (query root only).
    Project {
        input: Box<LogicalPlan>,
        exprs: Vec<(String, Scalar)>,
    },
    /// Result ordering (query root only).
    Sort {
        input: Box<LogicalPlan>,
        keys: Vec<(Scalar, SortOrder)>,
    },
    /// The dummy root tying a batch of statements together (§2.2 footnote:
    /// "a batch of queries is treated as a single complex query by tying
    /// them together with a dummy root operator").
    Batch { children: Vec<LogicalPlan> },
}

impl LogicalPlan {
    pub fn get(rel: RelId) -> LogicalPlan {
        LogicalPlan::Get { rel }
    }

    pub fn filter(self, pred: Scalar) -> LogicalPlan {
        if pred.is_true() {
            return self;
        }
        LogicalPlan::Filter {
            input: Box::new(self),
            pred,
        }
    }

    pub fn join(self, right: LogicalPlan, pred: Scalar) -> LogicalPlan {
        LogicalPlan::Join {
            left: Box::new(self),
            right: Box::new(right),
            pred,
        }
    }

    pub fn project(self, exprs: Vec<(String, Scalar)>) -> LogicalPlan {
        LogicalPlan::Project {
            input: Box::new(self),
            exprs,
        }
    }

    /// All table instances in the subtree.
    pub fn rels(&self) -> RelSet {
        match self {
            LogicalPlan::Get { rel } => RelSet::single(*rel),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Sort { input, .. } => input.rels(),
            LogicalPlan::Join { left, right, .. } => left.rels().union(right.rels()),
            LogicalPlan::Aggregate { input, .. } => input.rels(),
            LogicalPlan::Batch { children } => children
                .iter()
                .fold(RelSet::EMPTY, |acc, c| acc.union(c.rels())),
        }
    }

    /// The globally-identified columns this operator makes available to its
    /// parent. `Project` nodes expose no global columns (they deliver named
    /// positional output).
    pub fn output_cols(&self, ctx: &PlanContext) -> Vec<ColRef> {
        match self {
            LogicalPlan::Get { rel } => {
                let n = ctx.rel(*rel).schema.len();
                (0..n).map(|i| ColRef::new(*rel, i as u16)).collect()
            }
            LogicalPlan::Filter { input, .. } | LogicalPlan::Sort { input, .. } => {
                input.output_cols(ctx)
            }
            LogicalPlan::Join { left, right, .. } => {
                let mut cols = left.output_cols(ctx);
                cols.extend(right.output_cols(ctx));
                cols
            }
            LogicalPlan::Aggregate {
                keys, aggs, out, ..
            } => {
                let mut cols = keys.clone();
                cols.extend((0..aggs.len()).map(|i| ColRef::new(*out, i as u16)));
                cols
            }
            LogicalPlan::Project { .. } | LogicalPlan::Batch { .. } => Vec::new(),
        }
    }

    /// Multi-line indented rendering for diagnostics and tests.
    pub fn display(&self, ctx: &PlanContext) -> String {
        let mut out = String::new();
        self.fmt_indent(ctx, 0, &mut out);
        out
    }

    fn fmt_indent(&self, ctx: &PlanContext, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth);
        match self {
            LogicalPlan::Get { rel } => {
                let _ = writeln!(out, "{pad}Get {} [{rel}]", ctx.rel(*rel).alias_or_name());
            }
            LogicalPlan::Filter { input, pred } => {
                let _ = writeln!(out, "{pad}Filter {pred}");
                input.fmt_indent(ctx, depth + 1, out);
            }
            LogicalPlan::Join { left, right, pred } => {
                let _ = writeln!(out, "{pad}Join {pred}");
                left.fmt_indent(ctx, depth + 1, out);
                right.fmt_indent(ctx, depth + 1, out);
            }
            LogicalPlan::Aggregate {
                input, keys, aggs, ..
            } => {
                let keys: Vec<String> = keys.iter().map(|k| ctx.col_name(*k)).collect();
                let aggs: Vec<String> = aggs.iter().map(|a| a.to_string()).collect();
                let _ = writeln!(
                    out,
                    "{pad}Aggregate keys=[{}] aggs=[{}]",
                    keys.join(", "),
                    aggs.join(", ")
                );
                input.fmt_indent(ctx, depth + 1, out);
            }
            LogicalPlan::Project { input, exprs } => {
                let names: Vec<&str> = exprs.iter().map(|(n, _)| n.as_str()).collect();
                let _ = writeln!(out, "{pad}Project [{}]", names.join(", "));
                input.fmt_indent(ctx, depth + 1, out);
            }
            LogicalPlan::Sort { input, keys } => {
                let _ = writeln!(out, "{pad}Sort ({} keys)", keys.len());
                input.fmt_indent(ctx, depth + 1, out);
            }
            LogicalPlan::Batch { children } => {
                let _ = writeln!(out, "{pad}Batch ({} statements)", children.len());
                for c in children {
                    c.fmt_indent(ctx, depth + 1, out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggExpr;
    use cse_storage::{DataType, Schema};
    use std::sync::Arc;

    fn setup() -> (PlanContext, RelId, RelId) {
        let mut ctx = PlanContext::new();
        let b = ctx.new_block();
        let schema = Arc::new(Schema::from_pairs(&[
            ("k", DataType::Int),
            ("v", DataType::Float),
        ]));
        let r0 = ctx.add_base_rel("t", "t", schema.clone(), b);
        let r1 = ctx.add_base_rel("u", "u", schema, b);
        (ctx, r0, r1)
    }

    #[test]
    fn rels_and_output_cols() {
        let (ctx, r0, r1) = setup();
        let plan = LogicalPlan::get(r0).join(
            LogicalPlan::get(r1),
            Scalar::eq(Scalar::col(r0, 0), Scalar::col(r1, 0)),
        );
        assert_eq!(plan.rels(), RelSet::from_iter([r0, r1]));
        assert_eq!(plan.output_cols(&ctx).len(), 4);
    }

    #[test]
    fn aggregate_outputs() {
        let (mut ctx, r0, _) = setup();
        let b = ctx.new_block();
        let out = ctx.add_agg_output(&[DataType::Float], b);
        let plan = LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::get(r0)),
            keys: vec![ColRef::new(r0, 0)],
            aggs: vec![AggExpr::sum(Scalar::col(r0, 1))],
            out,
        };
        let cols = plan.output_cols(&ctx);
        assert_eq!(cols, vec![ColRef::new(r0, 0), ColRef::new(out, 0)]);
    }

    #[test]
    fn filter_true_is_identity() {
        let (_, r0, _) = setup();
        let plan = LogicalPlan::get(r0).filter(Scalar::true_());
        assert_eq!(plan, LogicalPlan::get(r0));
    }

    #[test]
    fn display_renders() {
        let (ctx, r0, r1) = setup();
        let plan = LogicalPlan::get(r0).join(
            LogicalPlan::get(r1),
            Scalar::eq(Scalar::col(r0, 0), Scalar::col(r1, 0)),
        );
        let s = plan.display(&ctx);
        assert!(s.contains("Join"));
        assert!(s.contains("Get t"));
    }
}
