//! The traced run: one pass over a workload's requests that decomposes
//! each request from outside, by timing the benchmark's own calls into
//! each layer's public functions.
//!
//! A request's `request` span holds the calls a request really makes
//! (`lower_batch_sql`, `optimize_plan`, `execute`). Its `probe` span holds
//! calls made only to split those further or to get the paper's ratios:
//! parsing alone, lint, exploring a memo, detection, and the no-CSE arm.
//! Spans inside the program are a later issue (ROADMAP item 2).

use crate::check;
use crate::requests::{self, MaintOp, Request};
use crate::trace::{Recorder, WHOLE_RUN};
use crate::workloads::{self, median};
use cse_core::{optimize_plan, CseConfig, CseManager, CseReport};
use cse_exec::Engine;
use cse_memo::{explore, Memo};
use cse_storage::Catalog;
use similar_subexpr::Session;

/// Name, unit and better direction of every per-layer metric. A layer a
/// workload does not call reports zero.
pub const PER_LAYER: [(&str, &str, &str); 46] = [
    ("tpch.generate_s", "s", "lower"),
    ("storage.catalog_rows", "count", "lower"),
    ("sql.parse_ms", "ms", "lower"),
    ("sql.lower_ms", "ms", "lower"),
    ("sql.statements", "count", "lower"),
    ("lint.batch_ms", "ms", "lower"),
    ("memo.explore_ms", "ms", "lower"),
    ("memo.groups", "count", "lower"),
    ("memo.gexprs", "count", "lower"),
    ("optimizer.baseline_ms", "ms", "lower"),
    ("core.detect_ms", "ms", "lower"),
    ("core.cse_phase_ms", "ms", "lower"),
    ("core.sharable_signatures", "count", "higher"),
    ("core.candidates", "count", "higher"),
    ("core.cse_optimizations", "count", "lower"),
    ("core.spools_used", "count", "higher"),
    ("core.est_cost_ratio", "ratio", "higher"),
    ("core.overhead_ratio", "ratio", "lower"),
    ("cost.spool_rows_qerr", "ratio", "lower"),
    ("exec.cse_ms", "ms", "lower"),
    ("exec.baseline_ms", "ms", "lower"),
    ("exec.time_ratio", "ratio", "higher"),
    ("exec.base_rows_scanned", "count", "lower"),
    ("exec.rows_scanned_per_s", "1/s", "higher"),
    ("exec.spool_rows", "count", "lower"),
    ("exec.spool_reads", "count", "higher"),
    ("exec.spool_bytes", "bytes", "lower"),
    ("exec.peak_bytes", "bytes", "lower"),
    ("exec.result_rows", "count", "lower"),
    ("exec.class.scan_agg_ms", "ms", "lower"),
    ("exec.class.join_ms", "ms", "lower"),
    ("exec.class.disjoint_batch_ms", "ms", "lower"),
    ("maintenance.maintain_ms", "ms", "lower"),
    ("maintenance.delta_rows", "count", "lower"),
    ("maintenance.candidates", "count", "higher"),
    ("maintenance.time_ratio", "ratio", "higher"),
    ("maintenance.view_read_ms", "ms", "lower"),
    ("serve.overhead_ms", "ms", "lower"),
    ("serve.scaling_efficiency", "ratio", "higher"),
    ("serve.completed", "count", "higher"),
    ("serve.degraded", "count", "lower"),
    ("serve.retries", "count", "lower"),
    ("serve.shed", "count", "lower"),
    ("serve.breaker_trips", "count", "lower"),
    ("serve.peak_bytes_max", "bytes", "lower"),
    ("trace.coverage", "ratio", "higher"),
];

/// What one traced run produced.
pub struct Layers {
    /// One value per entry of [`PER_LAYER`], in its order.
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub recorder: Recorder,
}

/// `a / b`, or zero when there is nothing to divide by.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Attach what the optimizer reported to the span of the call that
/// produced it.
fn count_report(rec: &mut Recorder, id: usize, report: &CseReport) {
    rec.count(id, "sharable_signatures", report.sharable_signatures as f64);
    rec.count(id, "candidates", report.candidates.len() as f64);
    rec.count(id, "cse_optimizations", f64::from(report.cse_optimizations));
    rec.count(id, "spools_used", report.spools_used as f64);
    rec.count(id, "baseline_cost", report.baseline_cost);
    rec.count(id, "final_cost", report.final_cost);
}

/// What tracing one request found.
struct Traced {
    /// The default and the no-CSE arm returned the same results.
    agrees: bool,
    /// Time inside the calls a request makes: the children of its
    /// `request` span.
    path_ms: f64,
}

/// Trace one SQL request against `catalog`. A request that errors is a
/// broken workload and stops the run.
fn trace_sql(
    rec: &mut Recorder,
    index: usize,
    catalog: &Catalog,
    sql: &str,
    with_cse: &CseConfig,
    without: &CseConfig,
) -> Traced {
    // The calls a request makes.
    let request = rec.begin(index, "request");
    let (ctx, plan) = rec
        .span(index, "sql.lower_batch_sql", || {
            cse_sql::lower_batch_sql(catalog, sql)
        })
        .expect("lower request");
    let (probe_ctx, probe_plan) = (ctx.clone(), plan.clone());
    let optimized = rec
        .span(index, "core.optimize_plan", || {
            optimize_plan(catalog, ctx, plan, with_cse)
        })
        .expect("optimize request");
    let optimize_id = rec.last_id();
    count_report(rec, optimize_id, &optimized.report);
    let engine = Engine::new(catalog, &optimized.ctx);
    let out = rec
        .span(index, "exec.execute", || engine.execute(&optimized.plan))
        .expect("execute request");
    let exec_id = rec.last_id();
    let m = &out.metrics;
    rec.count(exec_id, "base_rows_scanned", m.base_rows_scanned as f64);
    rec.count(
        exec_id,
        "spool_rows",
        m.spool_rows.values().sum::<usize>() as f64,
    );
    rec.count(
        exec_id,
        "spool_reads",
        m.spool_reads.values().sum::<usize>() as f64,
    );
    rec.count(
        exec_id,
        "spool_bytes",
        m.spool_bytes.values().sum::<usize>() as f64,
    );
    rec.count(exec_id, "peak_bytes", m.peak_bytes as f64);
    let result_rows: usize = out.results.iter().map(|r| r.rows.len()).sum();
    rec.count(exec_id, "result_rows", result_rows as f64);
    // Estimated against measured rows of each spool the plan used, as a
    // q-error; logs are summed so the report can take a geometric mean.
    for c in &optimized.report.candidates {
        if let Some(&actual) = m.spool_rows.get(&c.id) {
            let (est, actual) = (c.est_rows.max(1.0), (actual as f64).max(1.0));
            rec.count(
                exec_id,
                "spool_qerr_ln",
                (est / actual).max(actual / est).ln(),
            );
            rec.count(exec_id, "spools_measured", 1.0);
        }
    }
    rec.end(request);

    // Calls made only to split the request further.
    let probe = rec.begin(index, "probe");
    let statements = rec
        .span(index, "sql.parse_batch", || cse_sql::parse_batch(sql))
        .expect("parse request")
        .len();
    let parse_id = rec.last_id();
    rec.count(parse_id, "statements", statements as f64);
    rec.span(index, "lint.lint_batch", || {
        cse_lint::lint_batch(catalog, sql)
    });
    let memo = rec.span(index, "memo.explore", || {
        let mut memo = Memo::new(probe_ctx.clone());
        let root = memo.insert_plan(&probe_plan);
        memo.set_root(root);
        explore(&mut memo, &with_cse.explore);
        memo
    });
    let explore_id = rec.last_id();
    rec.count(explore_id, "groups", memo.num_groups() as f64);
    rec.count(explore_id, "gexprs", memo.num_gexprs() as f64);
    rec.span(index, "core.detect", || {
        CseManager::build(&memo).sharable_sets().len()
    });
    let plain = rec
        .span(index, "core.optimize_plan.no_cse", || {
            optimize_plan(catalog, probe_ctx, probe_plan, without)
        })
        .expect("optimize request without CSEs");
    let plain_engine = Engine::new(catalog, &plain.ctx);
    let plain_out = rec
        .span(index, "exec.execute.no_cse", || {
            plain_engine.execute(&plain.plan)
        })
        .expect("execute request without CSEs");
    rec.end(probe);
    Traced {
        agrees: check::same_results(&out.results, &plain_out.results),
        path_ms: rec.spans()[request].duration_ms() - rec.self_ms(request),
    }
}

/// Mean duration of the `exec.execute` spans of the requests in `classes`.
fn class_exec_ms(rec: &Recorder, reqs: &[Request], classes: &[&str]) -> f64 {
    let durations: Vec<f64> = rec
        .spans()
        .iter()
        .filter(|s| s.name == "exec.execute" && classes.contains(&reqs[s.request].class))
        .map(|s| s.duration_ms())
        .collect();
    ratio(durations.iter().sum(), durations.len() as f64)
}

/// Derive every per-layer metric from the spans. Times are means per
/// traced SQL request; counts are totals over the pass. `extra` holds the
/// metrics only this workload produces; what nothing produces is zero.
fn metrics(
    rec: &Recorder,
    sql_requests: usize,
    coverage: f64,
    extra: Vec<(&'static str, f64)>,
) -> Vec<(&'static str, f64)> {
    let n = sql_requests as f64;
    let per_request = |name: &str| ratio(rec.total_ms(name), n);
    let optimize = |counter: &str| {
        rec.total_count("core.optimize_plan", counter)
            + rec.total_count("core.maintain_insert", counter)
    };
    let exec = |counter: &str| rec.total_count("exec.execute", counter);
    let with_cse_ms = rec.total_ms("core.optimize_plan");
    let without_ms = rec.total_ms("core.optimize_plan.no_cse");
    let exec_ms = rec.total_ms("exec.execute");
    let mut values = vec![
        (
            "tpch.generate_s",
            rec.total_ms("tpch.generate_catalog") / 1e3,
        ),
        (
            "storage.catalog_rows",
            rec.total_count("tpch.generate_catalog", "rows"),
        ),
        ("sql.parse_ms", per_request("sql.parse_batch")),
        (
            "sql.lower_ms",
            per_request("sql.lower_batch_sql") - per_request("sql.parse_batch"),
        ),
        (
            "sql.statements",
            rec.total_count("sql.parse_batch", "statements"),
        ),
        ("lint.batch_ms", per_request("lint.lint_batch")),
        ("memo.explore_ms", per_request("memo.explore")),
        ("memo.groups", rec.total_count("memo.explore", "groups")),
        ("memo.gexprs", rec.total_count("memo.explore", "gexprs")),
        (
            "optimizer.baseline_ms",
            per_request("core.optimize_plan.no_cse") - per_request("memo.explore"),
        ),
        ("core.detect_ms", per_request("core.detect")),
        ("core.cse_phase_ms", ratio(with_cse_ms - without_ms, n)),
        ("core.sharable_signatures", optimize("sharable_signatures")),
        ("core.candidates", optimize("candidates")),
        ("core.cse_optimizations", optimize("cse_optimizations")),
        ("core.spools_used", optimize("spools_used")),
        (
            "core.est_cost_ratio",
            ratio(optimize("baseline_cost"), optimize("final_cost")),
        ),
        ("core.overhead_ratio", ratio(with_cse_ms, without_ms)),
        (
            "cost.spool_rows_qerr",
            match exec("spools_measured") {
                0.0 => 0.0,
                spools => (exec("spool_qerr_ln") / spools).exp(),
            },
        ),
        ("exec.cse_ms", ratio(exec_ms, n)),
        ("exec.baseline_ms", per_request("exec.execute.no_cse")),
        (
            "exec.time_ratio",
            ratio(rec.total_ms("exec.execute.no_cse"), exec_ms),
        ),
        ("exec.base_rows_scanned", exec("base_rows_scanned")),
        (
            "exec.rows_scanned_per_s",
            ratio(exec("base_rows_scanned"), exec_ms / 1e3),
        ),
        ("exec.spool_rows", exec("spool_rows")),
        ("exec.spool_reads", exec("spool_reads")),
        ("exec.spool_bytes", exec("spool_bytes")),
        (
            "exec.peak_bytes",
            rec.counts("exec.execute", "peak_bytes").fold(0.0, f64::max),
        ),
        ("exec.result_rows", exec("result_rows")),
        ("trace.coverage", coverage),
    ];
    values.extend(extra);
    PER_LAYER
        .iter()
        .map(|(name, _, _)| {
            let value = values
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, v)| *v);
            (*name, value)
        })
        .collect()
}

/// Generate the catalog under a span, so its time and size are metrics.
fn traced_generate(rec: &mut Recorder) -> Catalog {
    let catalog = rec.span(WHOLE_RUN, "tpch.generate_catalog", workloads::generate);
    let rows: usize = catalog
        .table_names()
        .map(|t| catalog.table(t).expect("listed table").row_count())
        .sum();
    let id = rec.last_id();
    rec.count(id, "rows", rows as f64);
    catalog
}

/// Trace every request of a SQL workload in process. Each request runs
/// untraced through `Session::query` first and traced right after, so
/// both see the same warm process. Returns the problems found and the
/// coverage: the median over requests of traced time inside the request's
/// own calls over its untraced latency.
fn trace_requests(rec: &mut Recorder, session: &Session, reqs: &[Request]) -> (Vec<String>, f64) {
    for r in workloads::one_per_class(reqs) {
        session.query(&r.sql).expect("warm-up request");
    }
    let (with_cse, without) = (CseConfig::default(), CseConfig::no_cse());
    let mut problems = Vec::new();
    let mut covered = Vec::with_capacity(reqs.len());
    for (i, r) in reqs.iter().enumerate() {
        let started = std::time::Instant::now();
        session.query(&r.sql).expect("untraced request");
        let untraced_ms = started.elapsed().as_secs_f64() * 1e3;
        let traced = trace_sql(rec, i, session.catalog(), &r.sql, &with_cse, &without);
        if !traced.agrees {
            problems.push(format!(
                "request {i} ({}) differs from its no-CSE results",
                r.class
            ));
        }
        covered.push(ratio(traced.path_ms, untraced_ms));
    }
    (problems, median(&covered))
}

fn trace_sql_workload(workload: &str, seed: u64) -> Layers {
    let mut rec = Recorder::new();
    let reqs = requests::sql_round(workload, seed);
    let session = Session::new(traced_generate(&mut rec));
    let (problems, coverage) = trace_requests(&mut rec, &session, &reqs);
    let mut extra = Vec::new();
    if workload == "no-share" {
        let classes: [(_, &[&str]); 3] = [
            ("exec.class.scan_agg_ms", &["customer-agg", "lineitem-agg"]),
            ("exec.class.join_ms", &["join3"]),
            ("exec.class.disjoint_batch_ms", &["disjoint5"]),
        ];
        extra.extend(
            classes
                .iter()
                .map(|(name, classes)| (*name, class_exec_ms(&rec, &reqs, classes))),
        );
    }
    Layers {
        metrics: metrics(&rec, reqs.len(), coverage, extra),
        attempted: reqs.len() as u64,
        failed: problems.len() as u64,
        problems,
        recorder: rec,
    }
}

/// `serve-mix`: the requests traced in process, then the same round
/// through a one-worker and a W-worker server for what the serving layer
/// adds and how it scales.
fn trace_served(workload: &str, seed: u64) -> Layers {
    let mut rec = Recorder::new();
    let reqs = requests::sql_round(workload, seed);
    let session = Session::new(traced_generate(&mut rec));
    let (mut problems, coverage) = trace_requests(&mut rec, &session, &reqs);

    let reference = workloads::run_all(&session, &reqs);
    let expected: Vec<_> = reference.iter().map(|r| check::fingerprint(r)).collect();
    let light: Vec<usize> = (0..reqs.len())
        .filter(|&i| requests::is_light(reqs[i].class))
        .collect();
    let light_reqs: Vec<Request> = light.iter().map(|&i| reqs[i].clone()).collect();
    let light_expected: Vec<_> = light.iter().map(|&i| expected[i]).collect();

    // What the serving layer adds to a light request: one worker, one
    // client, so nothing queues.
    let single = workloads::build_served(&reqs, 1);
    let in_process = workloads::session_round(&single.session, &light_reqs, &light_expected);
    let through_server = rec.span(WHOLE_RUN, "serve.round.light", || {
        workloads::served_round(&single, &light_reqs, &light_expected)
    });
    // One client keeps the order, so latencies pair up by request.
    let added: Vec<f64> = through_server
        .latencies_ms
        .iter()
        .zip(&in_process.latencies_ms)
        .map(|(served, direct)| served - direct)
        .collect();
    let overhead_ms = median(&added);

    // Scaling: the whole round at one worker and at W workers.
    let one = rec.span(WHOLE_RUN, "serve.round.1", || {
        workloads::served_round(&single, &reqs, &expected)
    });
    drop(single);
    let workers = workloads::serve_workers();
    let pool = workloads::build_served(&reqs, workers);
    let many = rec.span(WHOLE_RUN, "serve.round.w", || {
        workloads::served_round(&pool, &reqs, &expected)
    });
    let id = rec.last_id();
    rec.count(id, "workers", workers as f64);
    let server_failed: u64 = [&in_process, &through_server, &one, &many]
        .iter()
        .map(|round| round.failed)
        .sum();
    let failed = problems.len() as u64 + server_failed;
    let rps = |round: &workloads::Round| ratio(round.latencies_ms.len() as f64, round.wall_s);
    let stats = pool.server.lock().expect("server lock").stats();
    if server_failed > 0 {
        problems.push(format!(
            "{server_failed} requests through the server failed or differed"
        ));
    }

    let extra = vec![
        ("serve.overhead_ms", overhead_ms),
        (
            "serve.scaling_efficiency",
            ratio(rps(&many), workers as f64 * rps(&one)),
        ),
        // The set-up warm-up requests went through the pool as well.
        ("serve.completed", stats.completed as f64),
        ("serve.degraded", stats.degraded as f64),
        ("serve.retries", stats.retries as f64),
        ("serve.shed", stats.shed as f64),
        ("serve.breaker_trips", stats.breaker.trips as f64),
        ("serve.peak_bytes_max", many.reply_peak_bytes as f64),
    ];
    Layers {
        metrics: metrics(&rec, reqs.len(), coverage, extra),
        attempted: (reqs.len() * 3 + light_reqs.len() * 2) as u64,
        failed,
        problems,
        recorder: rec,
    }
}

/// `view-maint`: inserts are opaque from outside (one span around
/// `Session::insert`); view reads are traced like any SQL request.
fn trace_maint(seed: u64) -> Layers {
    let mut rec = Recorder::new();
    drop(traced_generate(&mut rec));
    let ops = requests::maint_round(seed, workloads::customer_count());
    let base = workloads::build_views(&ops);
    let (with_cse, without) = (CseConfig::default(), CseConfig::no_cse());

    // Untraced passes under both configurations: the coverage check, the
    // no-CSE comparison and the paper's maintenance ratio.
    let (plain_round, plain_results) = workloads::maint_round(&base, &without, &ops, None);
    let (cse_round, cse_results) = workloads::maint_round(&base, &with_cse, &ops, None);
    let mut problems = workloads::maint_no_cse_problems(&cse_results, &plain_results);
    let insert_ms = |round: &workloads::Round| -> f64 {
        ops.iter()
            .zip(&round.latencies_ms)
            .filter(|(op, _)| matches!(op, MaintOp::Insert(_)))
            .map(|(_, ms)| ms)
            .sum()
    };

    let mut session = Session::new(base.clone());
    let mut reads = 0;
    let mut covered = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        let path_ms = match op {
            MaintOp::Insert(rows) => {
                let rows = rows.clone();
                let request = rec.begin(i, "request");
                let report = rec
                    .span(i, "core.maintain_insert", || {
                        session.insert("customer", rows)
                    })
                    .expect("traced insert");
                let id = rec.last_id();
                rec.count(id, "delta_rows", report.delta_rows as f64);
                count_report(&mut rec, id, &report.cse);
                rec.end(request);
                rec.spans()[id].duration_ms()
            }
            MaintOp::Read(r) => {
                reads += 1;
                let traced = trace_sql(&mut rec, i, session.catalog(), &r.sql, &with_cse, &without);
                if !traced.agrees {
                    problems.push(format!(
                        "view read at step {i} differs from its no-CSE results"
                    ));
                }
                traced.path_ms
            }
        };
        // Positions line up as long as no operation of the untraced pass
        // failed; a failure there is reported and the run is not correct.
        let untraced_ms = cse_round.latencies_ms.get(i).copied().unwrap_or(0.0);
        covered.push(ratio(path_ms, untraced_ms));
    }
    let read_ms: f64 = rec
        .spans()
        .iter()
        .filter(|s| s.name == "request" && matches!(ops[s.request], MaintOp::Read(_)))
        .map(|s| s.duration_ms())
        .sum();
    let inserts = (ops.len() - reads) as f64;
    let coverage = median(&covered);

    let maintain = |counter: &str| rec.total_count("core.maintain_insert", counter);
    let extra = vec![
        (
            "maintenance.maintain_ms",
            ratio(rec.total_ms("core.maintain_insert"), inserts),
        ),
        ("maintenance.delta_rows", maintain("delta_rows")),
        ("maintenance.candidates", maintain("candidates")),
        (
            "maintenance.time_ratio",
            ratio(insert_ms(&plain_round), insert_ms(&cse_round)),
        ),
        ("maintenance.view_read_ms", ratio(read_ms, reads as f64)),
    ];
    Layers {
        metrics: metrics(&rec, reads, coverage, extra),
        attempted: ops.len() as u64,
        failed: (problems.len() as u64).min(ops.len() as u64),
        problems,
        recorder: rec,
    }
}

/// Run one workload's traced pass.
pub fn run(workload: &str, seed: u64) -> Layers {
    match workload {
        "share-batch" | "opt-heavy" | "no-share" => trace_sql_workload(workload, seed),
        "serve-mix" => trace_served(workload, seed),
        "view-maint" => trace_maint(seed),
        other => unreachable!("main rejects unknown workload {other}"),
    }
}
