//! Registration types handed to the optimizer by the CSE manager: candidate
//! covering subexpressions and per-consumer view-matching substitutes.

use crate::physical::CseId;
use cse_algebra::{AggExpr, ColRef, RelId, Scalar};
use cse_memo::GroupId;

/// A candidate covering subexpression registered for the CSE optimization
/// phase. The definition has been inserted into the memo (`def_root`) so
/// its evaluation cost C_E falls out of ordinary group optimization; C_W
/// and C_R are candidate generation's, computed once from the shape.
#[derive(Debug, Clone)]
pub struct CseCandidate {
    pub id: CseId,
    /// Root group of the definition in the memo.
    pub def_root: GroupId,
    /// Columns materialized into the work table, in order.
    pub output: Vec<ColRef>,
    /// Estimated work-table rows.
    pub est_rows: f64,
    /// C_W and C_R: writing the work table once, and reading it once.
    pub cw: f64,
    pub cr: f64,
    /// Consumer groups this candidate can serve.
    pub consumers: Vec<GroupId>,
    /// Least common ancestor group of all consumers; `None` when consumers
    /// span disconnected trees (e.g. stacked CSEs consumed from several
    /// definitions), in which case the initial cost is charged at final
    /// assembly.
    pub lca: Option<GroupId>,
}

/// The compensation recipe rewriting one consumer on top of a CSE's work
/// table (produced by view matching, paper §5.1).
#[derive(Debug, Clone)]
pub struct Substitute {
    pub cse: CseId,
    /// The consumer group this substitute replaces.
    pub consumer: GroupId,
    /// Compensation predicate over the spool layout (residual conjuncts of
    /// the consumer not guaranteed by the CSE).
    pub filter: Option<Scalar>,
    /// Re-aggregation (consumer group-by is coarser than the CSE's).
    pub reagg: Option<SubstituteReAgg>,
    /// Mapping from each consumer output column to its defining expression
    /// over the spool (post-reagg) columns.
    pub output_map: Vec<(ColRef, Scalar)>,
}

/// Re-aggregation part of a substitute.
#[derive(Debug, Clone)]
pub struct SubstituteReAgg {
    pub keys: Vec<ColRef>,
    pub aggs: Vec<AggExpr>,
    /// The consumer's aggregate output rel (so parents see its columns).
    pub out: RelId,
}
