//! # cse-source — the shared source-analysis foundation
//!
//! The workspace carries two token-level static analyzers over its own
//! Rust source: `cse-conc` (lock discipline for the serving layer) and
//! `cse-audit` (panic-path and contract-drift auditing). Both need the
//! same substrate, which lives here so the next analyzer gets it for
//! free:
//!
//! - [`lexer`] — a dependency-free Rust token scanner with byte-accurate
//!   spans that keeps comments, strings, char literals and lifetimes from
//!   masquerading as code. No `syn`, no `proc-macro2`: the repo builds
//!   offline, and a token-level analyzer keeps working on files mid-edit.
//! - [`scope`] — a brace-scope tracker over the token stream: nesting
//!   depth, innermost enclosing function, enclosing `impl` block target
//!   type, and `#[cfg(test)]` / `#[test]` region detection.
//! - [`finding`] — the carrier type analyzers hand to allowlists and
//!   `cse_diag::Report`.
//! - [`allow`] — the checked-in, justified allowlist read by `qcheck`:
//!   `(rule, file-suffix, function)` keys, mandatory
//!   justifications, stale-entry detection so lists can only shrink back
//!   to truth.
//! - [`walk`] — deterministic `.rs` file collection for the CLI drivers.

pub mod allow;
pub mod finding;
pub mod lexer;
pub mod scope;
pub mod walk;

pub use allow::{apply_allowlist, parse_allowlist, stale_finding, AllowEntry, Filtered};
pub use finding::Finding;
pub use lexer::{lex, Tok, TokKind};
pub use scope::{BlockKind, ScopeEvent, ScopeTracker};
pub use walk::collect_rs;
