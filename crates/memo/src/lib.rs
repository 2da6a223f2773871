//! # cse-memo
//!
//! Cascades-style memo: groups of logically equivalent expressions stored
//! as a DAG (paper §2.1), transformation-rule exploration, and incremental
//! table-signature computation (paper §3).

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

pub mod explore;
pub mod memo;
pub mod op;
pub mod signature;

pub use explore::{explore, explore_from, ExploreConfig};
pub use memo::{AggInput, Conj, Group, LogicalKey, LogicalProps, Memo};
pub use op::{ConjId, GroupExpr, GroupExprId, GroupId, Op};
pub use signature::{compute_signature, TableSignature};
