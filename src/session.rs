//! High-level session API: the entry point a downstream application uses.
//!
//! A [`Session`] owns a catalog and an optimizer configuration and exposes
//! one-call query execution, plan explanation, and materialized-view
//! management — all driving the covering-subexpression pipeline
//! underneath.

use cse_core::{CseConfig, CseReport, MaintenancePlans, MaintenanceReport, Optimized};
use cse_exec::{Engine, ExecCtx, ExecError, ExecMetrics, ExecOutput, ResultSet};
use cse_govern::{DegradationEvent, FailpointRegistry, Reason, Rung};
use cse_storage::{Catalog, Row, Table};
use std::fmt;

/// Errors surfaced by the session API.
#[derive(Debug, Clone)]
pub enum Error {
    /// Parsing, binding or optimization failed.
    Planning(String),
    /// Plan execution failed.
    Execution(String),
    /// Catalog manipulation failed.
    Catalog(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Planning(m) => write!(f, "planning error: {m}"),
            Error::Execution(m) => write!(f, "execution error: {m}"),
            Error::Catalog(m) => write!(f, "catalog error: {m}"),
        }
    }
}

impl std::error::Error for Error {}

/// Result of running a batch: one result set per statement plus what the
/// optimizer and executor did for the run that answered.
#[derive(Debug)]
pub struct BatchOutcome {
    pub results: Vec<ResultSet>,
    pub report: CseReport,
    pub metrics: ExecMetrics,
    /// Every degradation across planning *and* execution: the optimizer's
    /// event (a budget trip or a panic), then the execution fault the
    /// batch was re-planned on the baseline rung for, if any.
    pub events: Vec<DegradationEvent>,
}

/// A catalog plus configuration; the main entry point of the library.
pub struct Session {
    catalog: Catalog,
    config: CseConfig,
    /// Maintenance batches of [`Session::insert`], planned under `config`
    /// and kept for later inserts while they still fit the catalog.
    plans: MaintenancePlans,
}

impl Session {
    /// Session over an existing catalog with default configuration
    /// (CSE detection on, heuristics on).
    pub fn new(catalog: Catalog) -> Self {
        Session::with_config(catalog, CseConfig::default())
    }

    /// Session with an explicit configuration.
    pub fn with_config(catalog: Catalog, config: CseConfig) -> Self {
        Session {
            catalog,
            config,
            plans: MaintenancePlans::new(),
        }
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    pub fn config(&self) -> &CseConfig {
        &self.config
    }

    /// Replace the configuration; maintenance batches planned under the
    /// old one are dropped.
    pub fn set_config(&mut self, config: CseConfig) {
        self.config = config;
        self.plans.clear();
    }

    /// Register a table (computing statistics).
    pub fn register_table(&mut self, table: Table) -> Result<(), Error> {
        self.catalog
            .register_table(table)
            .map_err(|e| Error::Catalog(e.to_string()))
    }

    /// Optimize a SQL batch without executing it.
    pub fn plan(&self, sql: &str) -> Result<Optimized, Error> {
        cse_core::optimize_sql(&self.catalog, sql, &self.config).map_err(Error::Planning)
    }

    /// Run the qlint static analyzer over a SQL batch without optimizing
    /// or executing it: parse (with recovery), lower, and report
    /// contradictions, tautologies, redundant conjuncts, dead columns and
    /// cross-statement sharing hints with stable rule ids and byte spans.
    ///
    /// This never fails: broken statements become `lint/parse-error` /
    /// `lint/bind-error` diagnostics in the returned outcome. Nothing the
    /// analyzer finds changes how [`Session::query`] plans the batch; a
    /// caller that wants findings to gate execution checks
    /// [`cse_lint::LintOutcome::has_warnings`] first, as `qsql --lint=deny`
    /// does.
    pub fn lint_batch(&self, sql: &str) -> cse_lint::LintOutcome {
        cse_lint::lint_batch(&self.catalog, sql)
    }

    /// Optimize and execute a SQL batch (statements separated by `;`),
    /// under the configured governance: starting rung, optimization budget,
    /// fault injection and cancellation token. A recoverable execution
    /// fault re-plans the whole batch on the baseline rung and runs it
    /// again with the failpoints disarmed and the token kept: answering
    /// comes before governing, and a canceled request still stops.
    pub fn query(&self, sql: &str) -> Result<BatchOutcome, Error> {
        let config = &self.config;
        let (optimized, run) = self.run(sql, config)?;
        let mut events = optimized.report.degradations.clone();
        let (optimized, out) = match run {
            Ok(out) => (optimized, out),
            Err(e) if e.is_recoverable() => {
                let reason = match e {
                    ExecError::MemReservation { .. } => Reason::MemReservation,
                    _ => Reason::ExecFaultInjected,
                };
                let detail = format!("{e}; re-planned on the baseline rung");
                events.push(DegradationEvent::new(reason, "execution", detail));
                let baseline = CseConfig {
                    start_rung: Rung::Baseline,
                    failpoints: FailpointRegistry::disabled(),
                    ..config.clone()
                };
                let (optimized, run) = self.run(sql, &baseline)?;
                events.extend(optimized.report.degradations.iter().cloned());
                (optimized, run.map_err(|e| Error::Execution(e.to_string()))?)
            }
            Err(e) => return Err(Error::Execution(e.to_string())),
        };
        Ok(BatchOutcome {
            results: out.results,
            report: optimized.report,
            metrics: out.metrics,
            events,
        })
    }

    /// Optimize `sql` under `config`, then execute the plan under its
    /// failpoints and cancellation token.
    fn run(
        &self,
        sql: &str,
        config: &CseConfig,
    ) -> Result<(Optimized, Result<ExecOutput, ExecError>), Error> {
        let optimized =
            cse_core::optimize_sql(&self.catalog, sql, config).map_err(Error::Planning)?;
        let ctx = ExecCtx {
            failpoints: config.failpoints.clone(),
            cancel: config.cancel.clone(),
            ..ExecCtx::default()
        };
        let out = Engine::new(&self.catalog, &optimized.ctx).execute_in(&optimized.plan, &ctx);
        Ok((optimized, out))
    }

    /// Human-readable explanation: chosen plan, spool definitions, the
    /// optimizer's report and where its time went, stage by stage, beside
    /// the number of shapes candidate generation costed.
    pub fn explain(&self, sql: &str) -> Result<String, Error> {
        use std::fmt::Write as _;
        let optimized = self.plan(sql)?;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "estimated cost: {:.1} (baseline without sharing: {:.1})",
            optimized.report.final_cost, optimized.report.baseline_cost
        );
        let _ = writeln!(
            s,
            "candidate CSEs: {} ({} CSE optimizations)",
            optimized.report.candidates.len(),
            optimized.report.cse_optimizations
        );
        for c in &optimized.report.candidates {
            let _ = writeln!(
                s,
                "  {}: tables={:?} grouped={} consumers={} ≈{:.0} rows",
                c.id, c.tables, c.grouped, c.consumers, c.est_rows
            );
        }
        let _ = writeln!(s, "plan:\n{}", optimized.plan.root.render());
        for (id, spool) in &optimized.plan.spools {
            let _ = writeln!(s, "spool {id} (computed once):\n{}", spool.plan.render());
        }
        let _ = writeln!(
            s,
            "stages ({:.3?} in all, {} generation trials):",
            optimized.report.total_time, optimized.report.trials
        );
        for (stage, took) in &optimized.report.stages {
            let _ = writeln!(s, "  stage {stage}: {took:.3?}");
        }
        Ok(s)
    }

    /// Create a materialized view from its defining SELECT.
    pub fn create_materialized_view(&mut self, name: &str, select: &str) -> Result<(), Error> {
        cse_core::create_materialized_view(&mut self.catalog, name, select, &self.config)
            .map_err(Error::Catalog)
    }

    /// Insert rows into a base table, incrementally maintaining every
    /// affected materialized view (the maintenance batch shares covering
    /// subexpressions). The batch is planned at the first insert into the
    /// table and reused while it fits the catalog.
    pub fn insert(&mut self, table: &str, rows: Vec<Row>) -> Result<MaintenanceReport, Error> {
        cse_core::maintain_insert(
            &mut self.catalog,
            table,
            rows,
            &self.config,
            &mut self.plans,
        )
        .map_err(Error::Catalog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cse_storage::{row, DataType, Schema, Value};

    fn session() -> Session {
        let mut t = Table::new(
            "t",
            Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]),
        );
        for i in 0..10 {
            t.push(row(vec![Value::Int(i % 3), Value::Int(i)])).unwrap();
        }
        let mut s = Session::new(Catalog::new());
        s.register_table(t).unwrap();
        s
    }

    #[test]
    fn query_roundtrip() {
        let s = session();
        let out = s
            .query("select k, sum(v) as total from t group by k")
            .unwrap();
        assert_eq!(out.results.len(), 1);
        assert_eq!(out.results[0].rows.len(), 3);
    }

    #[test]
    fn explain_mentions_cost() {
        let s = session();
        let e = s.explain("select k from t where v < 5").unwrap();
        assert!(e.contains("estimated cost"));
        assert!(e.contains("plan:"));
    }

    #[test]
    fn planning_errors_are_typed() {
        let s = session();
        match s.query("select nope from t") {
            Err(Error::Planning(m)) => assert!(m.contains("nope")),
            other => panic!("expected planning error, got {other:?}"),
        }
    }

    #[test]
    fn lint_batch_reports_and_query_respects_mode() {
        // Lint reports the contradiction; planning never reads it, and the
        // query runs to an empty result.
        let s = session();
        let sql = "select k from t where k < 5 and k > 10";
        let out = s.lint_batch(sql);
        assert!(out
            .report
            .fired_rules()
            .contains(cse_lint::rules::CONTRADICTION));
        assert!(out.has_warnings());
        let out = s.query(sql).unwrap();
        assert!(out.results[0].rows.is_empty());
    }

    #[test]
    fn view_lifecycle() {
        let mut s = session();
        s.create_materialized_view("v_sum", "select k, sum(v) as total from t group by k")
            .unwrap();
        assert_eq!(s.catalog().table("v_sum").unwrap().row_count(), 3);
        let report = s
            .insert("t", vec![row(vec![Value::Int(1), Value::Int(100)])])
            .unwrap();
        assert_eq!(report.views, vec!["v_sum".to_string()]);
        // Group k=1 total was 1+4+7=12, now 112.
        let v = s.catalog().table("v_sum").unwrap();
        let row_k1 = v
            .scan()
            .find(|r| r[0] == Value::Int(1))
            .expect("group 1 present");
        assert_eq!(row_k1[1], Value::Int(112));
    }
}
