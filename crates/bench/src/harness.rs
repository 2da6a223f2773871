//! Measurement harness: run a workload under the paper's three
//! configurations and report the rows its tables print.

use cse_core::{optimize_sql, CseConfig};
use cse_exec::{Engine, ExecOutput};
use cse_storage::Catalog;
use std::time::{Duration, Instant};

/// One measured configuration run.
#[derive(Debug)]
pub struct RunOutcome {
    pub config: &'static str,
    /// Candidate CSEs handed to the optimizer ("# of CSEs").
    pub candidates: usize,
    /// CSE re-optimizations (the bracketed number).
    pub cse_optimizations: u32,
    /// Total optimization wall-clock.
    pub opt_time: Duration,
    /// Estimated cost of the chosen plan.
    pub est_cost: f64,
    /// Execution wall-clock.
    pub exec_time: Duration,
    /// Spools in the final plan.
    pub spools: usize,
    /// Each candidate's consumers, in candidate order.
    pub consumers: Vec<usize>,
    pub output: ExecOutput,
}

impl RunOutcome {
    /// "total (most)" consumers over the candidates: one per query block
    /// or definition that reads a candidate, however it is joined.
    pub fn consumers_summary(&self) -> String {
        let total: usize = self.consumers.iter().sum();
        let most = self.consumers.iter().max().copied().unwrap_or(0);
        format!("{total} ({most})")
    }
}

/// Optimize + execute one workload under one configuration.
pub fn run(catalog: &Catalog, sql: &str, config: &'static str, cfg: &CseConfig) -> RunOutcome {
    let optimized = optimize_sql(catalog, sql, cfg).expect("optimization failed");
    let engine = Engine::new(catalog, &optimized.ctx);
    let t0 = Instant::now();
    let output = engine.execute(&optimized.plan).expect("execution failed");
    let exec_time = t0.elapsed();
    RunOutcome {
        config,
        candidates: optimized.report.candidates.len(),
        cse_optimizations: optimized.report.cse_optimizations,
        opt_time: optimized.report.total_time,
        est_cost: optimized.report.final_cost,
        exec_time,
        spools: optimized.plan.spools.len(),
        consumers: optimized
            .report
            .candidates
            .iter()
            .map(|c| c.consumers)
            .collect(),
        output,
    }
}

/// The paper's three configurations: No CSE / Using CSEs / no heuristics.
pub(crate) fn three_way(catalog: &Catalog, sql: &str) -> [RunOutcome; 3] {
    [
        run(catalog, sql, "No CSE", &CseConfig::no_cse()),
        run(catalog, sql, "Using CSEs", &CseConfig::default()),
        run(
            catalog,
            sql,
            "Using CSEs (no heuristics)",
            &CseConfig::no_heuristics(),
        ),
    ]
}

/// Verify all configurations produced identical results (FP-tolerant);
/// panics with a diagnostic otherwise.
pub(crate) fn assert_results_agree(outcomes: &[RunOutcome]) {
    let base = &outcomes[0].output.results;
    for o in &outcomes[1..] {
        assert_eq!(
            base.len(),
            o.output.results.len(),
            "{} delivered a different number of result sets",
            o.config
        );
        for (i, (a, b)) in base.iter().zip(o.output.results.iter()).enumerate() {
            assert!(
                a.approx_eq(b, 1e-9),
                "result {} of '{}' differs from baseline",
                i,
                o.config
            );
        }
    }
}

/// Render a paper-style table to stdout.
pub fn print_table(title: &str, outcomes: &[RunOutcome]) {
    println!("\n=== {title} ===");
    println!(
        "{:<28} {:>14} {:>16} {:>14} {:>14} {:>8} {:>18}",
        "",
        "# CSEs [opts]",
        "opt time (ms)",
        "est. cost",
        "exec (ms)",
        "spools",
        "consumers (most)"
    );
    for o in outcomes {
        println!(
            "{:<28} {:>9} [{:>2}] {:>16.3} {:>14.1} {:>14.3} {:>8} {:>18}",
            o.config,
            o.candidates,
            o.cse_optimizations,
            o.opt_time.as_secs_f64() * 1e3,
            o.est_cost,
            o.exec_time.as_secs_f64() * 1e3,
            o.spools,
            o.consumers_summary()
        );
    }
    let base = &outcomes[0];
    for o in &outcomes[1..] {
        println!(
            "  {}: est-cost ratio {:.2}x, exec-time ratio {:.2}x vs No CSE",
            o.config,
            base.est_cost / o.est_cost.max(1e-9),
            base.exec_time.as_secs_f64() / o.exec_time.as_secs_f64().max(1e-9)
        );
    }
}
