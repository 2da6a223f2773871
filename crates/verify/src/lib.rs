//! # cse-verify
//!
//! A multi-pass static analyzer that mechanically audits the invariants the
//! optimizer pipeline *assumes* but (before this crate) never checked:
//!
//! 1. **Well-formedness / column provenance** ([`provenance`]): every
//!    column referenced by a memo expression is produced by its children;
//!    delivery operators (`Project`/`Sort`/`Batch`) appear only at
//!    statement roots; aggregate output columns never leak below the
//!    aggregate that defines them.
//! 2. **Signature audit** ([`sigcheck`]): table signatures maintained
//!    incrementally during memo construction (paper §3, Fig. 2) must equal
//!    signatures recomputed bottom-up from scratch.
//! 3. **Compatibility audit** ([`candidate`]): join compatibility of a
//!    CSE's members re-derived directly from intersected equivalence
//!    classes (paper §4.1, Thm. 1 — connectivity of the intersected
//!    equijoin graph), cross-checked against the compositional fast path
//!    and the recorded join conjuncts.
//! 4. **Covering audit** ([`candidate`]): every consumer's (simplified)
//!    predicate, under the covering joins, implies the covering predicate
//!    (paper §4.2); consumer group-by keys/aggregates are subsumed by the
//!    union group-by; required columns are served by the covering
//!    projection.
//! 5. **Costing sanity** ([`costing`]): candidate costs are finite and
//!    nonnegative; per-group lower bounds from the normal phase never
//!    exceed freshly recomputed winner costs (paper §4.3.3/§5.4).
//! 6. **Downgrade audit** ([`downgrade`]): a plan produced under a tripped
//!    (or forced) optimization budget is a genuine baseline plan — no
//!    `CseRead` operators, no retained spool definitions.
//!
//! Each pass emits structured `cse_diag::Diagnostic`s collected into a
//! [`cse_diag::Report`].
//! The pipeline (`cse-core`) runs the verifier behind `CseConfig::verify`
//! (on by default in debug/test builds); `qsql --verify` exposes it on
//! demand, and `tests/verification.rs` runs it over every paper batch.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod candidate;
pub mod catalog;
pub mod costing;
pub mod diag;
pub mod downgrade;
pub mod provenance;
pub mod sigcheck;

pub use candidate::{verify_candidates, CandidateAudit, MemberAudit};
pub use catalog::verify_catalog;
pub use costing::{verify_costs, CostAudit};
pub use diag::rules;
pub use downgrade::verify_downgrade;
use provenance::verify_provenance;
use sigcheck::verify_signatures;

use cse_diag::Report;
use cse_memo::{GroupId, Memo};

/// Run the memo-level passes (provenance + signature audit) and merge the
/// reports. `roots` are the statement roots (batch root plus any CSE
/// definition roots) — the only positions where delivery operators may
/// legally appear.
pub fn verify_memo(memo: &Memo, roots: &[GroupId]) -> Report {
    let mut report = verify_provenance(memo, roots);
    report.merge(verify_signatures(memo));
    report
}
