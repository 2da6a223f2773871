//! `qsql` — a small interactive shell over the similar-subexpression
//! engine, preloaded with a TPC-H instance.
//!
//! ```text
//! cargo run --release --bin qsql [-- --sf 0.01] [--verify] [--lint[=deny]]
//!     [--budget-ms N] [--no-cse-fallback-only] [--fail <site>:<prob>[:<seed>]]
//!
//! qsql> select c_mktsegment, count(*) as n from customer group by c_mktsegment;
//! qsql> :explain select ... ;
//! qsql> :tables
//! qsql> :quit
//! ```
//!
//! Statements may span lines; a trailing `;` submits. A batch of several
//! `;`-separated statements is optimized *together*, so similar
//! subexpressions across them are detected and shared — try pasting the
//! README's two-query batch.

use similar_subexpr::prelude::*;
use std::io::{BufRead, Write};

/// Print `problem` and the usage on stderr, and exit with status 2.
fn usage(problem: &str) -> ! {
    eprintln!(
        "{problem}; usage: qsql [--sf N] [--verify] [--lint[=deny]] [--budget-ms N] \
         [--no-cse-fallback-only] [--fail site:prob[:seed]]"
    );
    std::process::exit(2);
}

fn main() {
    let mut sf = 0.01f64;
    let mut verify = false;
    let mut lint = LintMode::Off;
    let mut budget_ms: Option<u64> = None;
    let mut forced: Option<DegradationEvent> = None;
    let mut fail_specs: Vec<FailSpec> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--sf" => {
                sf = args
                    .next()
                    .as_deref()
                    .and_then(similar_subexpr::tpch::parse_scale)
                    .unwrap_or_else(|| usage("--sf expects a finite scale factor above 0"));
            }
            // Run the cse-verify invariant passes on every statement (on by
            // default in debug builds; this forces them on in release).
            "--verify" => verify = true,
            // Run the qlint static analyzer over every batch. `--lint`
            // reports its diagnostics on stderr; `--lint=deny` rejects any
            // batch with a warning-or-worse finding (the CI gate mode).
            a if a == "--lint" || a.starts_with("--lint=") => {
                lint = match a.strip_prefix("--lint=").unwrap_or("warn") {
                    "off" => LintMode::Off,
                    "warn" => LintMode::Warn,
                    "deny" => LintMode::Deny,
                    other => {
                        eprintln!("unknown lint mode '{other}' (off|warn|deny)");
                        std::process::exit(2);
                    }
                };
            }
            // Optimization budget: one wall-clock deadline for the CSE
            // phase. A tripped budget returns the baseline plan and
            // reports one OPT_DEADLINE downgrade; it never fails the query.
            "--budget-ms" => {
                budget_ms = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--budget-ms expects an integer"),
                );
            }
            // Start on the baseline rung, skipping the CSE phase outright,
            // and report it as OPT_FORCED with every batch.
            "--no-cse-fallback-only" => {
                forced = Some(DegradationEvent::new(
                    Reason::OptForced,
                    "admission",
                    "--no-cse-fallback-only forced the baseline rung",
                ));
            }
            // Arm deterministic failpoints (repeatable, comma-separated
            // site:prob[:seed] specs): --fail spool.materialize:1.0:42
            "--fail" => {
                let spec = args.next().expect("--fail expects site:prob[:seed]");
                match similar_subexpr::govern::parse_fail_specs(&spec) {
                    Ok(s) => fail_specs.extend(s),
                    Err(e) => {
                        eprintln!("{e}");
                        std::process::exit(2);
                    }
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    eprintln!("loading TPC-H at SF={sf} ...");
    let defaults = CseConfig::default();
    let mut config = CseConfig {
        verify: verify || defaults.verify,
        ..defaults
    };
    if forced.is_some() {
        config.start_rung = Rung::Baseline;
    }
    if let Some(ms) = budget_ms {
        config.budget = Budget::with_time_ms(ms);
    }
    for s in fail_specs {
        config.failpoints.arm(s);
    }
    let session = Session::with_config(generate_catalog(&TpchConfig::new(sf)), config);
    eprintln!("ready. end statements with ';', :help for commands.");

    let stdin = std::io::stdin();
    let mut buffer = String::new();
    prompt(&buffer);
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        let trimmed = line.trim();
        if buffer.is_empty() && trimmed.starts_with(':') {
            if !command(&session, trimmed) {
                break;
            }
            prompt(&buffer);
            continue;
        }
        buffer.push_str(&line);
        buffer.push('\n');
        if trimmed.ends_with(';') {
            run(&session, buffer.trim(), forced.as_ref(), lint);
            buffer.clear();
        }
        prompt(&buffer);
    }
}

/// What `--lint[=deny]` does with each batch.
#[derive(Clone, Copy, PartialEq)]
enum LintMode {
    Off,
    /// Report the analyzer's findings on stderr after the results.
    Warn,
    /// Reject a batch with a warning-or-worse finding before planning it.
    Deny,
}

fn prompt(buffer: &str) {
    if buffer.is_empty() {
        print!("qsql> ");
    } else {
        print!("  ..> ");
    }
    let _ = std::io::stdout().flush();
}

/// Returns false to quit.
fn command(session: &Session, cmd: &str) -> bool {
    let (head, rest) = match cmd.split_once(' ') {
        Some((h, r)) => (h, r.trim()),
        None => (cmd, ""),
    };
    match head {
        ":quit" | ":q" | ":exit" => return false,
        ":help" => {
            println!(
                ":explain <sql>;   show the chosen plan, spools and stage timings\n\
                 :lint <sql>;      run the static analyzer without executing\n\
                 :tables           list catalog tables\n\
                 :quit             leave"
            );
        }
        ":tables" => {
            let mut names: Vec<&str> = session.catalog().table_names().collect();
            names.sort();
            for n in names {
                let t = session.catalog().table(n).expect("listed table");
                println!("{n}: {} rows {}", t.row_count(), t.schema());
            }
        }
        ":explain" => match session.explain(rest.trim_end_matches(';')) {
            Ok(s) => println!("{s}"),
            Err(e) => eprintln!("{e}"),
        },
        ":lint" => {
            let out = session.lint_batch(rest);
            print!("{}", out.report.render_as("lint"));
            if out.report.is_clean() {
                println!();
            }
        }
        other => eprintln!("unknown command {other}; try :help"),
    }
    true
}

fn run(session: &Session, sql: &str, forced: Option<&DegradationEvent>, lint: LintMode) {
    let started = std::time::Instant::now();
    let findings = (lint != LintMode::Off).then(|| session.lint_batch(sql));
    // A batch that does not parse or bind fails planning with its own error
    // below, as it would without lint.
    let denied = findings
        .as_ref()
        .filter(|f| lint == LintMode::Deny && f.has_warnings() && f.report.error_count() == 0);
    if let Some(l) = denied.map(|f| &f.report) {
        eprintln!(
            "planning error: lint denied the batch ({} error(s), {} warning(s)):\n{}",
            l.error_count(),
            l.warning_count(),
            l.render_as("lint")
        );
        return;
    }
    match session.query(sql) {
        Ok(out) => {
            for rs in &out.results {
                println!("{}", render(rs));
            }
            // Degradations (budget trips, injected faults, recoveries) go
            // to stderr so results stay machine-consumable on stdout.
            for ev in forced.into_iter().chain(&out.events) {
                eprintln!("-- degraded: {ev}");
            }
            // Lint diagnostics likewise go to stderr.
            if let Some(l) = findings.as_ref().map(|f| &f.report) {
                if !l.is_clean() {
                    eprint!("{}", l.render_as("-- lint"));
                }
            }
            let spools = out.metrics.spool_reads.len();
            let verified = match &out.report.verification {
                Some(v) => format!("; verified ({} warning(s))", v.diagnostics.len()),
                None => String::new(),
            };
            println!(
                "-- {} statement(s) in {:?}; est. cost {:.1} (baseline {:.1}); {} shared spool(s){}",
                out.results.len(),
                started.elapsed(),
                out.report.final_cost,
                out.report.baseline_cost,
                spools,
                verified
            );
        }
        Err(e) => eprintln!("{e}"),
    }
}

/// Fixed-width text table, capped at 40 rows.
fn render(rs: &ResultSet) -> String {
    const MAX_ROWS: usize = 40;
    let mut widths: Vec<usize> = rs.columns.iter().map(|c| c.len()).collect();
    let shown = rs.rows.iter().take(MAX_ROWS);
    let cells: Vec<Vec<String>> = shown
        .map(|r| r.iter().map(|v| v.to_string()).collect())
        .collect();
    for row in &cells {
        for (i, c) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(c.len());
            }
        }
    }
    let mut out = String::new();
    let header: Vec<String> = rs
        .columns
        .iter()
        .zip(&widths)
        .map(|(c, w)| format!("{c:<w$}"))
        .collect();
    out.push_str(&header.join(" | "));
    out.push('\n');
    out.push_str(
        &widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("-+-"),
    );
    for row in &cells {
        out.push('\n');
        let line: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        out.push_str(&line.join(" | "));
    }
    if rs.rows.len() > MAX_ROWS {
        out.push_str(&format!("\n... ({} rows total)", rs.rows.len()));
    }
    out
}
