//! Physical plans: the optimizer's output, interpreted by `cse-exec`.
//!
//! Every operator carries its *output layout*: the ordered list of global
//! column ids its result rows contain. The executor binds scalar
//! expressions against these layouts, so plans are self-describing.

use cse_algebra::{AggExpr, ColRef, Interval, RelId, Scalar, SortOrder};
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a covering subexpression (assigned by the CSE manager).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CseId(pub u32);

impl fmt::Display for CseId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "E{}", self.0)
    }
}

/// Re-aggregation applied on top of a spool read when the consumer's
/// group-by is coarser than the CSE's.
#[derive(Debug, Clone, PartialEq)]
pub struct ReAgg {
    /// Grouping keys, expressed over the spool layout.
    pub keys: Vec<ColRef>,
    /// Roll-up aggregations over the spool's partial-aggregate columns.
    pub aggs: Vec<AggExpr>,
    /// Synthetic rel of this re-aggregation's outputs (the *consumer's*
    /// aggregate output rel, so parents see identical columns).
    pub out: RelId,
}

/// A physical operator tree.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalPlan {
    /// Full scan of a stored table; a filtered scan is `Filter(TableScan)`.
    TableScan { rel: RelId, layout: Vec<ColRef> },
    /// B-tree index range scan. The index narrows the scan to the rows
    /// whose `col` lies in `interval` — a hint extracted from `pred`; every
    /// row it returns is then decided by `pred`, the whole filter.
    IndexRangeScan {
        rel: RelId,
        col: ColRef,
        interval: Interval,
        pred: Scalar,
        layout: Vec<ColRef>,
    },
    Filter {
        input: Box<PhysicalPlan>,
        pred: Scalar,
    },
    /// Hash join; left side builds, right side probes.
    HashJoin {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
        /// Pairs of (left column, right column) equijoin keys.
        keys: Vec<(ColRef, ColRef)>,
        /// Non-equijoin residual predicate.
        residual: Option<Scalar>,
        layout: Vec<ColRef>,
    },
    /// Index nested-loops join: each `outer` row meets the stored rows of
    /// `rel` whose `key.1` equals its `key.0`, found through the catalog's
    /// hash index on `key.1`; `residual` decides every pair. Holds nothing.
    IndexNlJoin {
        outer: Box<PhysicalPlan>,
        rel: RelId,
        /// (outer column, indexed column of `rel`).
        key: (ColRef, ColRef),
        /// The other join conjuncts and the filter over `rel`.
        residual: Option<Scalar>,
        /// The outer layout, then `rel`'s columns in stored order.
        layout: Vec<ColRef>,
    },
    /// Nested-loops join for non-equijoin predicates.
    NlJoin {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
        pred: Scalar,
        layout: Vec<ColRef>,
    },
    HashAggregate {
        input: Box<PhysicalPlan>,
        keys: Vec<ColRef>,
        aggs: Vec<AggExpr>,
        out: RelId,
        layout: Vec<ColRef>,
    },
    /// Final named projection.
    Project {
        input: Box<PhysicalPlan>,
        exprs: Vec<(String, Scalar)>,
    },
    Sort {
        input: Box<PhysicalPlan>,
        keys: Vec<(Scalar, SortOrder)>,
    },
    /// Read the work table of covering subexpression `cse`, apply the
    /// compensation filter, optionally re-aggregate, then map the spool
    /// columns onto the consumer's expected output columns.
    CseRead {
        cse: CseId,
        filter: Option<Scalar>,
        reagg: Option<ReAgg>,
        /// (output column, defining expression over spool/reagg columns).
        output_map: Vec<(ColRef, Scalar)>,
        layout: Vec<ColRef>,
    },
    /// Batch root: execute children in order, deliver each result.
    Batch { children: Vec<PhysicalPlan> },
}

impl PhysicalPlan {
    /// The output layout (global column ids, in row order). Project/Sort
    /// at the root and Batch deliver named/positional results and expose
    /// no global layout.
    pub fn layout(&self) -> &[ColRef] {
        match self {
            PhysicalPlan::TableScan { layout, .. }
            | PhysicalPlan::IndexRangeScan { layout, .. }
            | PhysicalPlan::HashJoin { layout, .. }
            | PhysicalPlan::IndexNlJoin { layout, .. }
            | PhysicalPlan::NlJoin { layout, .. }
            | PhysicalPlan::HashAggregate { layout, .. }
            | PhysicalPlan::CseRead { layout, .. } => layout,
            PhysicalPlan::Filter { input, .. } | PhysicalPlan::Sort { input, .. } => input.layout(),
            PhysicalPlan::Project { .. } | PhysicalPlan::Batch { .. } => &[],
        }
    }

    /// Count the `CseRead` occurrences per CSE in this tree.
    pub fn cse_reads(&self) -> BTreeMap<CseId, u32> {
        let mut out = BTreeMap::new();
        self.visit(&mut |p| {
            if let PhysicalPlan::CseRead { cse, .. } = p {
                *out.entry(*cse).or_insert(0) += 1;
            }
        });
        out
    }

    pub fn visit(&self, f: &mut impl FnMut(&PhysicalPlan)) {
        f(self);
        match self {
            PhysicalPlan::TableScan { .. }
            | PhysicalPlan::IndexRangeScan { .. }
            | PhysicalPlan::CseRead { .. } => {}
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::IndexNlJoin { outer: input, .. }
            | PhysicalPlan::HashAggregate { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Sort { input, .. } => input.visit(f),
            PhysicalPlan::HashJoin { left, right, .. }
            | PhysicalPlan::NlJoin { left, right, .. } => {
                left.visit(f);
                right.visit(f);
            }
            PhysicalPlan::Batch { children } => {
                for c in children {
                    c.visit(f);
                }
            }
        }
    }

    /// Operator name for plan rendering.
    pub fn name(&self) -> &'static str {
        match self {
            PhysicalPlan::TableScan { .. } => "TableScan",
            PhysicalPlan::IndexRangeScan { .. } => "IndexRangeScan",
            PhysicalPlan::Filter { .. } => "Filter",
            PhysicalPlan::HashJoin { .. } => "HashJoin",
            PhysicalPlan::IndexNlJoin { .. } => "IndexNlJoin",
            PhysicalPlan::NlJoin { .. } => "NlJoin",
            PhysicalPlan::HashAggregate { .. } => "HashAggregate",
            PhysicalPlan::Project { .. } => "Project",
            PhysicalPlan::Sort { .. } => "Sort",
            PhysicalPlan::CseRead { .. } => "CseRead",
            PhysicalPlan::Batch { .. } => "Batch",
        }
    }

    /// Indented tree rendering.
    pub fn render(&self) -> String {
        let mut s = String::new();
        self.render_into(0, &mut s);
        s
    }

    fn render_into(&self, depth: usize, out: &mut String) {
        use std::fmt::Write as _;
        let pad = "  ".repeat(depth);
        match self {
            PhysicalPlan::TableScan { rel, .. } => {
                let _ = writeln!(out, "{pad}TableScan r{}", rel.0);
            }
            PhysicalPlan::IndexRangeScan { rel, col, .. } => {
                let _ = writeln!(out, "{pad}IndexRangeScan r{} on {col}", rel.0);
            }
            PhysicalPlan::Filter { input, pred } => {
                let _ = writeln!(out, "{pad}Filter {pred}");
                input.render_into(depth + 1, out);
            }
            PhysicalPlan::HashJoin {
                left, right, keys, ..
            } => {
                let ks: Vec<String> = keys.iter().map(|(a, b)| format!("{a}={b}")).collect();
                let _ = writeln!(out, "{pad}HashJoin [{}]", ks.join(", "));
                left.render_into(depth + 1, out);
                right.render_into(depth + 1, out);
            }
            PhysicalPlan::IndexNlJoin {
                outer,
                rel,
                key: (o, i),
                ..
            } => {
                let _ = writeln!(out, "{pad}IndexNlJoin r{} [{o}={i}]", rel.0);
                outer.render_into(depth + 1, out);
            }
            PhysicalPlan::NlJoin {
                left, right, pred, ..
            } => {
                let _ = writeln!(out, "{pad}NlJoin {pred}");
                left.render_into(depth + 1, out);
                right.render_into(depth + 1, out);
            }
            PhysicalPlan::HashAggregate {
                input, keys, aggs, ..
            } => {
                let ks: Vec<String> = keys.iter().map(|k| k.to_string()).collect();
                let ags: Vec<String> = aggs.iter().map(|a| a.to_string()).collect();
                let _ = writeln!(
                    out,
                    "{pad}HashAggregate keys=[{}] aggs=[{}]",
                    ks.join(","),
                    ags.join(",")
                );
                input.render_into(depth + 1, out);
            }
            PhysicalPlan::Project { input, exprs } => {
                let names: Vec<&str> = exprs.iter().map(|(n, _)| n.as_str()).collect();
                let _ = writeln!(out, "{pad}Project [{}]", names.join(", "));
                input.render_into(depth + 1, out);
            }
            PhysicalPlan::Sort { input, .. } => {
                let _ = writeln!(out, "{pad}Sort");
                input.render_into(depth + 1, out);
            }
            PhysicalPlan::CseRead {
                cse, filter, reagg, ..
            } => {
                let f = filter
                    .as_ref()
                    .map(|p| format!(" filter={p}"))
                    .unwrap_or_default();
                let g = if reagg.is_some() { " reagg" } else { "" };
                let _ = writeln!(out, "{pad}CseRead {cse}{f}{g}");
            }
            PhysicalPlan::Batch { children } => {
                let _ = writeln!(out, "{pad}Batch");
                for c in children {
                    c.render_into(depth + 1, out);
                }
            }
        }
    }
}

/// A complete executable artifact: the root plan plus the definition plan
/// and work-table layout of every covering subexpression it reads.
#[derive(Debug, Clone)]
pub struct FullPlan {
    pub root: PhysicalPlan,
    pub spools: BTreeMap<CseId, SpoolDef>,
    /// Estimated total cost (paper's "estimated cost" row).
    pub cost: f64,
}

/// A spool definition: how to compute a CSE's work table.
#[derive(Debug, Clone)]
pub struct SpoolDef {
    pub plan: PhysicalPlan,
    /// Work-table column layout (global ids of the CSE's output columns).
    pub layout: Vec<ColRef>,
    pub est_rows: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use cse_algebra::RelId;

    fn scan(rel: u32) -> PhysicalPlan {
        PhysicalPlan::TableScan {
            rel: RelId(rel),
            layout: vec![ColRef::new(RelId(rel), 0)],
        }
    }

    #[test]
    fn layout_passes_through_filter() {
        let p = PhysicalPlan::Filter {
            input: Box::new(scan(0)),
            pred: Scalar::true_(),
        };
        assert_eq!(p.layout(), &[ColRef::new(RelId(0), 0)]);
    }

    #[test]
    fn cse_reads_counted() {
        let read = PhysicalPlan::CseRead {
            cse: CseId(3),
            filter: None,
            reagg: None,
            output_map: vec![],
            layout: vec![],
        };
        let p = PhysicalPlan::Batch {
            children: vec![read.clone(), read],
        };
        assert_eq!(p.cse_reads().get(&CseId(3)), Some(&2));
    }

    #[test]
    fn render_includes_operators() {
        let p = PhysicalPlan::HashJoin {
            left: Box::new(scan(0)),
            right: Box::new(scan(1)),
            keys: vec![(ColRef::new(RelId(0), 0), ColRef::new(RelId(1), 0))],
            residual: None,
            layout: vec![],
        };
        let r = p.render();
        assert!(r.contains("HashJoin"));
        assert!(r.contains("TableScan r0"));
    }
}
