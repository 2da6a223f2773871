//! # cse-diag
//!
//! Structured diagnostics shared by the static analyzers: the post-hoc
//! plan/memo invariant verifier (`cse-verify`) and the frontend batch
//! linter (`cse-lint`). Every pass reports violations through these types
//! so callers (pipeline, CLI, bench report, tests, CI gates) can filter by
//! rule and severity instead of parsing strings.
//!
//! Rule-id *namespaces* stay with the analyzer that owns them:
//! `cse-verify` keeps its `provenance/…`, `signature/…`, `compat/…`,
//! `covering/…`, `costing/…`, `downgrade/…` families; `cse-lint` owns the
//! `lint/…` family. This crate only provides the carrier types.

#![forbid(unsafe_code)]

use std::collections::BTreeSet;
use std::fmt;

/// How bad a finding is. `Error` means a soundness invariant is violated
/// (verify: the plan must not be executed; lint: the statement cannot be
/// bound); `Warning` flags suspicious but not provably wrong states;
/// `Note` carries advisory facts such as sharing opportunities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Note,
    Warning,
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Note => write!(f, "note"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One finding: which rule fired, where, and why.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub severity: Severity,
    /// Stable identifier (e.g. `signature/mismatch`, `lint/contradiction`).
    pub rule_id: &'static str,
    /// Group / candidate / plan / statement path the finding refers to
    /// (e.g. `G12`, `cse#3/member[1]`, `stmt[0]`).
    pub path: String,
    pub message: String,
    /// Half-open byte range `[start, end)` into the analyzed source text,
    /// when the finding maps back to concrete syntax (lint diagnostics do;
    /// memo-level verify diagnostics don't).
    pub span: Option<(u32, u32)>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: [{}] {}: {}",
            self.severity, self.rule_id, self.path, self.message
        )?;
        if let Some((s, e)) = self.span {
            write!(f, " (bytes {s}..{e})")?;
        }
        Ok(())
    }
}

/// The merged output of one or more analyzer passes.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    pub fn new() -> Self {
        Report::default()
    }

    fn push(
        &mut self,
        severity: Severity,
        rule_id: &'static str,
        path: impl Into<String>,
        message: impl Into<String>,
        span: Option<(u32, u32)>,
    ) {
        self.diagnostics.push(Diagnostic {
            severity,
            rule_id,
            path: path.into(),
            message: message.into(),
            span,
        });
    }

    /// Record an `Error`-severity finding.
    pub fn error(
        &mut self,
        rule_id: &'static str,
        path: impl Into<String>,
        message: impl Into<String>,
    ) {
        self.push(Severity::Error, rule_id, path, message, None);
    }

    /// Record a `Warning`-severity finding.
    pub fn warn(
        &mut self,
        rule_id: &'static str,
        path: impl Into<String>,
        message: impl Into<String>,
    ) {
        self.push(Severity::Warning, rule_id, path, message, None);
    }

    /// Record a `Note`-severity finding.
    pub fn note(
        &mut self,
        rule_id: &'static str,
        path: impl Into<String>,
        message: impl Into<String>,
    ) {
        self.push(Severity::Note, rule_id, path, message, None);
    }

    /// Record an `Error`-severity finding with a source span.
    pub fn error_at(
        &mut self,
        rule_id: &'static str,
        path: impl Into<String>,
        message: impl Into<String>,
        span: (u32, u32),
    ) {
        self.push(Severity::Error, rule_id, path, message, Some(span));
    }

    /// Record a `Warning`-severity finding with a source span.
    pub fn warn_at(
        &mut self,
        rule_id: &'static str,
        path: impl Into<String>,
        message: impl Into<String>,
        span: (u32, u32),
    ) {
        self.push(Severity::Warning, rule_id, path, message, Some(span));
    }

    /// Record a `Note`-severity finding with a source span.
    pub fn note_at(
        &mut self,
        rule_id: &'static str,
        path: impl Into<String>,
        message: impl Into<String>,
        span: (u32, u32),
    ) {
        self.push(Severity::Note, rule_id, path, message, Some(span));
    }

    /// Fold another report's findings into this one.
    pub fn merge(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Number of `Error`-severity findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of `Warning`-severity findings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// No findings at all (the acceptance state for healthy plans).
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// The distinct rules that fired.
    pub fn fired_rules(&self) -> BTreeSet<&'static str> {
        self.diagnostics.iter().map(|d| d.rule_id).collect()
    }

    /// Human-readable rendering, one diagnostic per line, under the
    /// default `verification` label.
    pub fn render(&self) -> String {
        self.render_as("verification")
    }

    /// [`Report::render`] with a caller-chosen label (e.g. `lint` for the
    /// analyzer, `verification` for the memo invariant passes).
    pub fn render_as(&self, label: &str) -> String {
        if self.is_clean() {
            return format!("{label}: clean (0 diagnostics)");
        }
        let mut s = format!(
            "{label}: {} diagnostic(s), {} error(s)\n",
            self.diagnostics.len(),
            self.error_count()
        );
        for d in &self.diagnostics {
            s.push_str(&format!("  {d}\n"));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_order() {
        assert!(Severity::Note < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn spanless_display_is_unchanged() {
        let mut r = Report::new();
        r.error("signature/mismatch", "G3", "stored != recomputed");
        assert_eq!(
            r.diagnostics[0].to_string(),
            "error: [signature/mismatch] G3: stored != recomputed"
        );
    }

    #[test]
    fn spans_render_in_display() {
        let mut r = Report::new();
        r.warn_at("lint/contradiction", "stmt[0]", "always false", (10, 28));
        let text = r.diagnostics[0].to_string();
        assert!(text.contains("(bytes 10..28)"), "{text}");
        assert_eq!(r.diagnostics[0].span, Some((10, 28)));
    }

    #[test]
    fn counts_by_severity() {
        let mut r = Report::new();
        r.note("lint/share-hint", "stmt[0]+stmt[1]", "compatible");
        r.warn("lint/tautology", "stmt[1]", "always true");
        r.error("lint/bind-error", "stmt[2]", "unknown column");
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
        assert_eq!(r.diagnostics.len(), 3);
        assert!(!r.is_clean());
    }
}
