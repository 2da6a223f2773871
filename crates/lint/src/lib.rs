//! # cse-lint
//!
//! qlint: a multi-pass static semantic analyzer and batch linter over the
//! SQL → logical frontend. It reports contradictions, tautologies,
//! redundant conjuncts, dead columns, binder failures and cross-statement
//! sharing opportunities as [`cse_diag::Diagnostic`]s with stable rule ids
//! and byte spans into the original SQL text. It only reports: the
//! optimizer never reads its findings, and proves what it needs itself
//! with the same `cse-algebra` routines (a redundant conjunct is
//! [`cse_algebra::implied_by_siblings`] here and in covering
//! construction alike).
//!
//! ## Passes
//!
//! | pass | module | rules |
//! |------|--------|-------|
//! | 1. resolution audit     | here        | `lint/parse-error`, `lint/bind-error`, `lint/unsupported`, `lint/internal`, `lint/type-mismatch` |
//! | 2. fold + range dataflow| [`fold`], [`ranges`] | `lint/contradiction`, `lint/tautology`, `lint/redundant-pred` |
//! | 3. column liveness      | [`liveness`] | `lint/dead-column` |
//! | 4. batch share analysis | [`share`]   | `lint/share-hint` |
//!
//! Severity conventions: resolution failures are `Error` (the statement
//! cannot run); semantic findings are `Warning` (the statement runs but
//! the predicate is suspicious); share hints are `Note` (advisory, for the
//! user).

pub mod fold;
pub mod liveness;
pub mod ranges;
pub mod share;

pub use cse_diag::{Diagnostic, Report, Severity};

use cse_algebra::{implied_by_siblings, PlanContext, Scalar, SpjgNormal};
use cse_sql::ast::Statement;
use cse_sql::{parse_batch_recovering, LowerTrace, Span, SqlError, SqlLowerer};
use cse_storage::{Catalog, DataType};

/// Stable lint rule identifiers (`lint/…` namespace; the verifier owns
/// the memo-level namespaces, see `cse-verify::rules`).
pub mod rules {
    /// The lexer or a statement-level parse failed (recovery skips to the
    /// next `;` and keeps linting).
    pub const PARSE_ERROR: &str = "lint/parse-error";
    /// A name failed to resolve against the catalog/scope.
    pub const BIND_ERROR: &str = "lint/bind-error";
    /// Valid SQL outside the supported subset.
    pub const UNSUPPORTED: &str = "lint/unsupported";
    /// The lowerer violated its own invariant (always a bug).
    pub const INTERNAL: &str = "lint/internal";
    /// A comparison between operands of incomparable types (always NULL
    /// at runtime, so the conjunct never accepts).
    pub const TYPE_MISMATCH: &str = "lint/type-mismatch";
    /// A conjunct (or the whole WHERE) provably accepts no row.
    pub const CONTRADICTION: &str = "lint/contradiction";
    /// A conjunct provably accepts every row (or every non-NULL row).
    pub const TAUTOLOGY: &str = "lint/tautology";
    /// A conjunct implied by the statement's other conjuncts.
    pub const REDUNDANT_PRED: &str = "lint/redundant-pred";
    /// A projection column or group-by key nothing consumes.
    pub const DEAD_COLUMN: &str = "lint/dead-column";
    /// Two statements share a table signature; the message carries the
    /// §4.1 join-compatibility verdict.
    pub const SHARE_HINT: &str = "lint/share-hint";

    /// Every lint rule, for exhaustiveness checks.
    pub const ALL: &[&str] = &[
        PARSE_ERROR,
        BIND_ERROR,
        UNSUPPORTED,
        INTERNAL,
        TYPE_MISMATCH,
        CONTRADICTION,
        TAUTOLOGY,
        REDUNDANT_PRED,
        DEAD_COLUMN,
        SHARE_HINT,
    ];
}

/// Everything one lint run produces.
#[derive(Debug, Clone, Default)]
pub struct LintOutcome {
    pub report: Report,
    /// Number of statements that parsed (including ones that then failed
    /// to bind).
    pub statements: usize,
}

impl LintOutcome {
    /// Is any finding a warning or worse? What `qlint --deny` and
    /// `qsql --lint=deny` reject a batch on.
    pub fn has_warnings(&self) -> bool {
        let mut severities = self.report.diagnostics.iter().map(|d| d.severity);
        severities.any(|s| s >= Severity::Warning)
    }
}

fn stmt_path(i: usize) -> String {
    format!("stmt[{i}]")
}

/// Run all analyzer passes over a SQL batch.
///
/// Lowering uses a single [`SqlLowerer`] over the statements in source
/// order — the same convention as `cse_sql::lower_batch_sql` — so a
/// statement's diagnostics name the rel ids the pipeline will see.
pub fn lint_batch(catalog: &Catalog, sql: &str) -> LintOutcome {
    let mut report = Report::new();

    // ---- Pass 1a: parse with recovery. -------------------------------
    let parsed = parse_batch_recovering(sql);
    for e in &parsed.errors {
        report.error_at(rules::PARSE_ERROR, "batch", &e.message, e.span.to_pair());
    }

    // ---- Pass 1b: lower statements in order with one shared context. --
    let mut lowerer = SqlLowerer::new(catalog);
    // (index, statement span, plan, trace, ast)
    let mut lowered = Vec::new();
    for ps in &parsed.statements {
        let select = match &ps.stmt {
            Statement::Select(s) => s,
            Statement::CreateMaterializedView { name, .. } => {
                report.warn_at(
                    rules::UNSUPPORTED,
                    stmt_path(ps.index),
                    format!("CREATE MATERIALIZED VIEW {name} is handled by the maintenance API, not the query path"),
                    ps.span.to_pair(),
                );
                continue;
            }
        };
        match lowerer.lower_select(select) {
            Ok(plan) => {
                lowered.push((ps.index, ps.span, plan, lowerer.trace.clone(), select));
            }
            Err(e) => {
                let rule = match &e {
                    SqlError::Parse(_) => rules::PARSE_ERROR,
                    SqlError::Bind(_) => rules::BIND_ERROR,
                    SqlError::Unsupported(_) => rules::UNSUPPORTED,
                    SqlError::Internal(_) => rules::INTERNAL,
                };
                report.error_at(rule, stmt_path(ps.index), e.to_string(), ps.span.to_pair());
            }
        }
    }

    // ---- Passes 1c/2/3: per-statement analyses. -----------------------
    let ctx = &lowerer.ctx;
    for (index, span, plan, trace, select) in &lowered {
        analyze_statement(ctx, *index, *span, plan, trace, select, &mut report);
    }

    // ---- Pass 4: cross-statement share hints. -------------------------
    let normals: Vec<(usize, SpjgNormal)> = lowered
        .iter()
        .filter_map(|(index, _, plan, _, _)| {
            SpjgNormal::from_plan(share::strip_root(plan)).map(|n| (*index, n))
        })
        .collect();
    for v in share::share_hints(ctx, &normals) {
        let span = lowered
            .iter()
            .find(|(i, ..)| *i == v.i)
            .map(|(_, s, ..)| s.to_pair());
        let msg = if v.compatible {
            format!(
                "statements {} and {} share signature {} and are join compatible: candidates for one covering subexpression",
                v.i, v.j, v.signature
            )
        } else {
            format!(
                "statements {} and {} share signature {} but are not join compatible (intersected equijoin graph disconnected)",
                v.i, v.j, v.signature
            )
        };
        match span {
            Some(sp) => report.note_at(
                rules::SHARE_HINT,
                format!("stmt[{}]+stmt[{}]", v.i, v.j),
                msg,
                sp,
            ),
            None => report.note(
                rules::SHARE_HINT,
                format!("stmt[{}]+stmt[{}]", v.i, v.j),
                msg,
            ),
        }
    }

    LintOutcome {
        report,
        statements: parsed.statements.len(),
    }
}

/// Type classes that `Value::sql_cmp` can actually order against each
/// other. Numeric types (INT/FLOAT/DATE) cross-compare; STRING and BOOL
/// only compare within their own class.
fn comparable(a: DataType, b: DataType) -> bool {
    let numeric = |t: DataType| matches!(t, DataType::Int | DataType::Float | DataType::Date);
    a == b || (numeric(a) && numeric(b))
}

#[allow(clippy::too_many_arguments)]
fn analyze_statement(
    ctx: &PlanContext,
    index: usize,
    stmt_span: Span,
    plan: &cse_algebra::LogicalPlan,
    trace: &LowerTrace,
    select: &cse_sql::ast::SelectStmt,
    report: &mut Report,
) {
    let path = stmt_path(index);

    // -- Pass 1c: type audit over the traced conjuncts. -----------------
    for (conj, span) in &trace.pred_spans {
        conj.visit(&mut |s| {
            if let Scalar::Cmp(_, a, b) = s {
                let (ta, tb) = (ctx.scalar_type(a), ctx.scalar_type(b));
                if !comparable(ta, tb) {
                    report.warn_at(
                        rules::TYPE_MISMATCH,
                        path.clone(),
                        format!("comparison between {ta} and {tb} is always NULL and never accepts a row"),
                        span.to_pair(),
                    );
                }
            }
        });
    }

    // -- Pass 2a: constant folding per conjunct. ------------------------
    let mut stmt_unsat = false;
    for (conj, span) in &trace.pred_spans {
        let folded = fold::fold(conj);
        if fold::is_const_false(&folded) {
            report.warn_at(
                rules::CONTRADICTION,
                path.clone(),
                format!("conjunct folds to FALSE: {conj}"),
                span.to_pair(),
            );
            stmt_unsat = true;
        } else if fold::is_const_null(&folded) {
            report.warn_at(
                rules::CONTRADICTION,
                path.clone(),
                format!("conjunct folds to NULL (never accepts a row): {conj}"),
                span.to_pair(),
            );
            stmt_unsat = true;
        } else if fold::is_const_true(&folded) {
            report.warn_at(
                rules::TAUTOLOGY,
                path.clone(),
                format!("conjunct folds to TRUE and filters nothing: {conj}"),
                span.to_pair(),
            );
        } else if let Scalar::Cmp(op, a, b) = &folded {
            // Reflexive comparisons: `c = c` / `c <= c` accept every row
            // whose operand is non-NULL — suspicious, though it still
            // filters NULLs.
            if a == b
                && matches!(
                    op,
                    cse_algebra::CmpOp::Eq | cse_algebra::CmpOp::Le | cse_algebra::CmpOp::Ge
                )
            {
                report.warn_at(
                    rules::TAUTOLOGY,
                    path.clone(),
                    format!("reflexive comparison is TRUE for every non-NULL operand: {conj}"),
                    span.to_pair(),
                );
            }
        }
    }

    // -- Pass 2b: per-column range dataflow. -----------------------------
    let conjuncts: Vec<Scalar> = trace.pred_spans.iter().map(|(c, _)| c.clone()).collect();
    if !stmt_unsat {
        if let Some((col, reason)) = ranges::prove_unsat(ctx, &conjuncts) {
            // Point the diagnostic at the conjuncts that constrain the
            // offending column.
            let mut span = Span::ZERO;
            for (c, s) in &trace.pred_spans {
                if c.columns().contains(&col) {
                    span = span.merge(*s);
                }
            }
            let span = if span == Span::ZERO { stmt_span } else { span };
            report.warn_at(
                rules::CONTRADICTION,
                path.clone(),
                format!(
                    "WHERE is unsatisfiable: column {} {reason}",
                    ctx.col_name(col)
                ),
                span.to_pair(),
            );
            stmt_unsat = true;
        }
    }

    // -- Pass 2c: implication-redundant conjuncts. -----------------------
    // Skipped for unsat statements: under an empty WHERE every conjunct is
    // vacuously redundant and reporting them all would be noise. Of a
    // duplicate pair, the later occurrence is the one reported.
    if !stmt_unsat {
        let implied = implied_by_siblings(&conjuncts);
        for ((conj, span), _) in trace.pred_spans.iter().zip(implied).filter(|(_, i)| *i) {
            report.warn_at(
                rules::REDUNDANT_PRED,
                path.clone(),
                format!("conjunct is implied by the statement's other conjuncts: {conj}"),
                span.to_pair(),
            );
        }
    }

    // -- Pass 3: liveness. ------------------------------------------------
    for key in liveness::dead_group_keys(plan) {
        let span = trace
            .key_spans
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, s)| *s)
            .unwrap_or(stmt_span);
        report.warn_at(
            rules::DEAD_COLUMN,
            path.clone(),
            format!(
                "group-by key {} is never consumed above the aggregate",
                ctx.col_name(key)
            ),
            span.to_pair(),
        );
    }
    for (item_idx, span) in liveness::duplicate_projections(select) {
        report.warn_at(
            rules::DEAD_COLUMN,
            path.clone(),
            format!("select item #{item_idx} duplicates an earlier expression"),
            span.to_pair(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cse_storage::{Catalog, DataType, Schema, Table, Value};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let schema = Schema::from_pairs(&[
            ("a", DataType::Int),
            ("b", DataType::Int),
            ("s", DataType::Str),
            ("d", DataType::Date),
        ]);
        let mut t = Table::new("t", schema.clone());
        for i in 0..8i64 {
            t.push(
                vec![
                    Value::Int(i),
                    Value::Int(i * 2),
                    Value::str(format!("r{i}")),
                    Value::Date(9000 + i as i32),
                ]
                .into(),
            )
            .unwrap();
        }
        cat.register_table(t).unwrap();
        let mut u = Table::new("u", Schema::from_pairs(&[("k", DataType::Int)]));
        u.push(vec![Value::Int(1)].into()).unwrap();
        cat.register_table(u).unwrap();
        cat
    }

    fn rule_spans(out: &LintOutcome, rule: &str) -> Vec<(u32, u32)> {
        out.report
            .diagnostics
            .iter()
            .filter(|d| d.rule_id == rule)
            .map(|d| d.span.expect("lint diagnostics carry spans"))
            .collect()
    }

    #[test]
    fn contradiction_via_ranges_with_span() {
        let sql = "select a from t where a < 5 and a > 10";
        let out = lint_batch(&catalog(), sql);
        let spans = rule_spans(&out, rules::CONTRADICTION);
        assert_eq!(spans.len(), 1, "{}", out.report.render());
        // The span must cover both offending conjuncts.
        let (s, e) = spans[0];
        let text = &sql[s as usize..e as usize];
        assert!(text.contains("a < 5") && text.contains("a > 10"), "{text}");
        assert_eq!(out.report.diagnostics[0].path, "stmt[0]");
    }

    #[test]
    fn contradiction_via_folding() {
        let out = lint_batch(&catalog(), "select a from t where 1 > 2");
        assert!(out.report.fired_rules().contains(rules::CONTRADICTION));
    }

    #[test]
    fn tautology_folding_and_reflexive() {
        let out = lint_batch(&catalog(), "select a from t where 1 < 2 and a = a");
        let spans = rule_spans(&out, rules::TAUTOLOGY);
        assert_eq!(spans.len(), 2, "{}", out.report.render());
        // Tautologies are advisory: neither a contradiction nor redundant.
        assert!(!out.report.fired_rules().contains(rules::CONTRADICTION));
        assert!(rule_spans(&out, rules::REDUNDANT_PRED).is_empty());
    }

    #[test]
    fn redundant_conjunct_reported() {
        let sql = "select a from t where a < 5 and a < 10";
        let out = lint_batch(&catalog(), sql);
        let spans = rule_spans(&out, rules::REDUNDANT_PRED);
        assert_eq!(spans.len(), 1, "{}", out.report.render());
        let (s, e) = spans[0];
        assert_eq!(&sql[s as usize..e as usize], "a < 10");
    }

    #[test]
    fn duplicate_conjunct_reported_once() {
        let sql = "select a from t where a < 5 and a < 5.0";
        let out = lint_batch(&catalog(), sql);
        let spans = rule_spans(&out, rules::REDUNDANT_PRED);
        // `a < 5` and `a < 5.0` imply each other: only the later is reported.
        assert_eq!(spans, [(32, 39)], "{}", out.report.render());
        assert_eq!(&sql[32..39], "a < 5.0");
        let out = lint_batch(&catalog(), "select a from t where a < 5 and a < 5");
        assert_eq!(rule_spans(&out, rules::REDUNDANT_PRED).len(), 1);
    }

    #[test]
    fn dead_group_key_detected() {
        let sql = "select sum(b) from t group by a";
        let out = lint_batch(&catalog(), sql);
        let spans = rule_spans(&out, rules::DEAD_COLUMN);
        assert_eq!(spans.len(), 1, "{}", out.report.render());
        let (s, e) = spans[0];
        assert_eq!(&sql[s as usize..e as usize], "a");
        // Projecting the key makes it live.
        let out = lint_batch(&catalog(), "select a, sum(b) from t group by a");
        assert!(rule_spans(&out, rules::DEAD_COLUMN).is_empty());
    }

    #[test]
    fn duplicate_projection_detected() {
        let out = lint_batch(&catalog(), "select a, b, a from t");
        assert_eq!(rule_spans(&out, rules::DEAD_COLUMN).len(), 1);
    }

    #[test]
    fn type_mismatch_detected() {
        let out = lint_batch(&catalog(), "select a from t where a = 'x'");
        assert!(out.report.fired_rules().contains(rules::TYPE_MISMATCH));
        // Date columns coerce their string literals: no mismatch.
        let out = lint_batch(&catalog(), "select a from t where d = '1996-07-01'");
        assert!(!out.report.fired_rules().contains(rules::TYPE_MISMATCH));
    }

    #[test]
    fn bind_error_with_statement_span() {
        let sql = "select a from t;\nselect nosuch from t";
        let out = lint_batch(&catalog(), sql);
        let spans = rule_spans(&out, rules::BIND_ERROR);
        assert_eq!(spans.len(), 1);
        let (s, e) = spans[0];
        assert_eq!(&sql[s as usize..e as usize], "select nosuch from t");
        assert_eq!(out.statements, 2);
    }

    #[test]
    fn parse_error_recovery_keeps_linting() {
        let sql = "select from where;\nselect a from t where a < 5 and a > 10";
        let out = lint_batch(&catalog(), sql);
        assert!(out.report.fired_rules().contains(rules::PARSE_ERROR));
        assert!(out.report.fired_rules().contains(rules::CONTRADICTION));
        // The contradiction names the *source-order* index.
        let contradiction = out
            .report
            .diagnostics
            .iter()
            .find(|d| d.rule_id == rules::CONTRADICTION);
        assert_eq!(contradiction.map(|d| d.path.as_str()), Some("stmt[1]"));
    }

    #[test]
    fn share_hint_on_same_signature_statements() {
        let sql = "select a from t where a < 5;\nselect b from t where b > 3";
        let out = lint_batch(&catalog(), sql);
        let hints: Vec<_> = out
            .report
            .diagnostics
            .iter()
            .filter(|d| d.rule_id == rules::SHARE_HINT)
            .collect();
        assert_eq!(hints.len(), 1, "{}", out.report.render());
        assert_eq!(hints[0].severity, Severity::Note);
        assert!(hints[0].message.contains("join compatible"));
        assert_eq!(hints[0].path, "stmt[0]+stmt[1]");
        // Different tables: no hint.
        let out = lint_batch(&catalog(), "select a from t;\nselect k from u");
        assert!(!out.report.fired_rules().contains(rules::SHARE_HINT));
    }

    #[test]
    fn clean_batch_is_clean() {
        let out = lint_batch(&catalog(), "select a, b from t where a < 5 order by b");
        assert!(out.report.is_clean(), "{}", out.report.render());
    }

    #[test]
    fn warnings_gate_but_notes_do_not() {
        let warn = lint_batch(&catalog(), "select a from t where a < 5 and a < 10");
        assert!(warn.has_warnings());
        let clean = lint_batch(&catalog(), "select a from t");
        assert!(!clean.has_warnings());
        // Notes alone never deny.
        let notes = lint_batch(&catalog(), "select a from t;\nselect b from t");
        assert!(notes
            .report
            .diagnostics
            .iter()
            .all(|d| d.severity == Severity::Note));
        assert!(!notes.has_warnings());
    }
}
