//! # cse-exec
//!
//! Physical-plan interpreter: row-at-a-time operators (scans, hash/NL
//! joins, hash aggregation, sort), spool work tables computed once and
//! shared across consumers, and execution metrics.

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::indexing_slicing
)]
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::indexing_slicing
    )
)]

pub mod engine;
pub mod error;
pub mod eval;
mod keys;

pub use engine::{Engine, ExecCtx, ExecMetrics, ExecOutput, ResultSet};
pub use error::ExecError;
pub use eval::{AggState, Bound};
