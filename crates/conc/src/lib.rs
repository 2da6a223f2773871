//! # cse-conc — concurrency analysis for the serving layer
//!
//! Two coupled parts, one theme: make the serving layer's concurrency
//! *checkable* instead of vibes-based.
//!
//! 1. [`discipline`] (on the shared [`cse_source`] lexer, scope tracker
//!    and allowlist): a dependency-free static
//!    analyzer over the workspace's own source, enforcing the lock
//!    discipline the server relies on (no guard across an optimizer or
//!    engine call, global lock order, no locks in declared hot paths, no
//!    guards across `catch_unwind`, no unbounded channels, no unjustified
//!    `Ordering::Relaxed`). Findings are `cse_diag` diagnostics with
//!    stable rule ids; intentional exceptions live in a checked-in,
//!    justified allowlist whose stale entries are themselves findings.
//!    The `qcheck` binary (in `cse-audit`) drives this as a CI gate
//!    (`qcheck --deny`).
//!
//! 2. [`explore`] + [`models`]: a deterministic interleaving explorer
//!    ("shuttle-lite") plus step-function models of the bounded queue,
//!    the CSE circuit breaker and the cancel/deadline machinery. The
//!    exhaustive suites prove the ISSUE-level invariants — exactly-once
//!    delivery, single half-open probe, exactly one terminal outcome per
//!    request — over *every* interleaving up to a bound; the seeded
//!    sampling arm extends coverage beyond it.
//!
//! The two parts reinforce each other: the discipline rules guarantee
//! critical sections stay small and single-lock, which is the soundness
//! condition for modeling each locked operation as one atomic explorer
//! step.

pub mod discipline;
pub mod explore;
pub mod models;

pub use discipline::{rules, scan_file, DisciplineConfig, Finding};
pub use explore::{explore, explore_with, replay, sample, Explored, Model, Violation};
