//! # cse-algebra
//!
//! Relational-algebra layer: globally-identified columns, scalar and
//! aggregate expressions, logical plans, SPJG normal form, equivalence
//! classes, equijoin graphs and predicate implication. This is the shared
//! vocabulary of the memo, the optimizer and the CSE machinery.

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

pub mod agg;
pub mod align;
pub mod context;
pub mod equiv;
pub mod ids;
pub mod implication;
pub mod join_graph;
pub mod join_tree;
pub mod logical;
pub mod normal_form;
pub mod scalar;

pub use agg::{AggExpr, AggFunc};
pub use align::Alignment;
pub use context::{PlanContext, RelInfo, RelKind};
pub use equiv::{classes_to_conjuncts, intersect_all, intersect_classes, EquivClasses};
pub use ids::{BlockId, ColRef, RelId, RelSet};
pub use implication::{
    column_ranges, implied_by_siblings, implies, ranges_of, Antecedent, Empty, Interval,
};
pub use join_graph::{derive_compatibility_compositional, is_connected, join_compatible};
pub use join_tree::{left_deep, take_covered};
pub use logical::{LogicalPlan, SortOrder};
pub use normal_form::{GroupSpec, SpjNormal, SpjgNormal};
pub use scalar::{ArithOp, CmpOp, Scalar};
