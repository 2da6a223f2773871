//! # cse-core
//!
//! The paper's contribution: detection, construction and cost-based
//! exploitation of similar subexpressions ("Efficient Exploitation of
//! Similar Subexpressions for Query Processing", SIGMOD 2007).
//!
//! - [`config`]: the configuration, per-request facts and report every
//!   stage reads;
//! - [`manager`]: table-signature hash table, sharable-set detection, and
//!   the memo's ancestor relation with least-common-ancestor lookup;
//! - [`cse_algebra::align`] / [`compat`]: consumer alignment and join
//!   compatibility;
//! - [`mod@construct`]: the six-step covering-subexpression builder;
//! - [`candidates`]: Algorithm 1 with heuristics H1–H4;
//! - [`view_match`]: substitute (compensation) construction;
//! - [`enumerate`]: the multi-candidate set enumeration with
//!   Propositions 5.4–5.6;
//! - [`pipeline`]: the end-to-end optimizer entry points;
//! - [`maintenance`]: materialized-view maintenance over the pipeline,
//!   planned as `CatalogMutation`s over the storage layer's delta table,
//!   with the maintenance batch cached per base table.

#![forbid(unsafe_code)]
// Fallible paths must surface `Result`s, not panic; tests may unwrap.
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

pub mod candidates;
pub mod compat;
pub mod config;
pub mod construct;
pub mod enumerate;
pub mod maintenance;
pub mod manager;
pub mod pipeline;
pub mod required;
pub mod view_match;

pub use candidates::CostedCandidate;
pub use compat::{partition_compatible, prepare_consumers, CompatibleGroup, PreparedConsumer};
pub use config::{CandidateSummary, CostBounds, CseConfig, CseReport, PhaseCtx};
pub use construct::{construct, simplify_covering, ConstructedCse, Construction, CseShape};
pub use enumerate::EnumOutcome;
pub use maintenance::{
    create_materialized_view, maintain_insert, plan_insert, plan_materialized_view,
    MaintenancePlan, MaintenancePlans, MaintenanceReport,
};
pub use manager::CseManager;
pub use pipeline::{optimize_plan, optimize_sql, Optimized};
pub use required::{compute_required, RequiredCols};
