//! # cse-optimizer
//!
//! Cost-based physical optimization over the memo: implementation rules
//! (scans, hash/NL joins, hash aggregation, index range scans), enabled-CSE
//! sets as required properties, least-common-ancestor spool costing, and
//! full-plan assembly with transitive (stacked) spool collection. The
//! search costs winners by reference to their children; operator trees are
//! extracted once per returned plan.

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

pub mod dot;
pub mod optimizer;
pub mod physical;
pub mod rows;
pub mod substitute;

pub use dot::to_dot;
pub use optimizer::{bit, Costed, CseMask, History, Optimizer, PlanChoice, Usage};
pub use physical::{CseId, FullPlan, PhysicalPlan, ReAgg, SpoolDef};
pub use rows::GroupRows;
pub use substitute::{CseCandidate, Substitute, SubstituteReAgg};
