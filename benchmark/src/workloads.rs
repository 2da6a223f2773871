//! The five workloads and the untraced run that measures them end to end.
//!
//! A run sets the system up (several times, reporting the median), runs
//! one untimed reference pass that also warms the process up, then runs
//! whole rounds over the same request list until the time is spent, and
//! finally checks the reference results against `CseConfig::no_cse()` and
//! the golden file. Nothing is traced here.

use crate::calibrate::{Kernel, NOMINAL_MS};
use crate::check::{self, Fingerprint};
use crate::requests::{self, MaintOp, Request};
use crate::sysinfo;
use cse_core::CseConfig;
use cse_exec::ResultSet;
use cse_serve::{AdmitPolicy, Outcome, Server, ServerConfig};
use cse_storage::{Catalog, Row};
use similar_subexpr::Session;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// TPC-H scale factor of every workload.
pub const SF: f64 = 0.01;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Name and reason of each workload, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "share-batch",
        "paper batches (Table 1, Table 2, nested, scale-up 4-8): execution dominates and every plan writes and reads a spool",
    ),
    (
        "opt-heavy",
        "Table 4 eight-table batch and the 10-statement scale-up batch: optimization dominates, so memo, optimizer and CSE-phase work shows",
    ),
    (
        "no-share",
        "disjoint batch, tiny and filtered group-bys, one 3-way join: zero candidates and zero spools, the bypass side of every CSE optimisation",
    ),
    (
        "view-maint",
        "the write path: inserts into customer maintain the three views of section 6.4, with a view read after every tenth insert",
    ),
    (
        "serve-mix",
        "closed loop through cse_serve::Server, one client per worker: a quarter share-batch requests, the rest no-share",
    ),
];

/// Workers and clients of `serve-mix`.
pub fn serve_workers() -> usize {
    sysinfo::cores().min(4)
}

pub fn generate() -> Catalog {
    cse_tpch::generate_catalog(&cse_tpch::TpchConfig::new(SF))
}

/// What one untraced run measured, as the clock read it.
pub struct EndToEnd {
    /// Median sample of the calibration kernel during the timed rounds.
    pub kernel_ms: f64,
    pub setup_s: f64,
    pub throughput_rps: f64,
    pub latency_p50_ms: f64,
    pub latency_p90_ms: f64,
    pub cpu_ms_per_req: f64,
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    pub rounds: usize,
    pub requests_per_round: usize,
    /// Timed requests that delivered a correct result: the latency sample.
    pub samples: usize,
    /// Failed checks, in words.
    pub problems: Vec<String>,
}

impl EndToEnd {
    /// What the run's times are multiplied by to state them for a box
    /// that runs the calibration kernel in its nominal time.
    pub fn calibration(&self) -> f64 {
        NOMINAL_MS / self.kernel_ms
    }

    /// The six end-to-end metrics as measured, in the contract's order.
    pub fn raw(&self) -> [f64; 6] {
        [
            self.setup_s,
            self.throughput_rps,
            self.latency_p50_ms,
            self.latency_p90_ms,
            self.cpu_ms_per_req,
            self.peak_rss_mb,
        ]
    }

    /// The same six with times calibrated; memory is left as measured.
    pub fn calibrated(&self) -> [f64; 6] {
        let f = self.calibration();
        let [setup_s, rps, p50, p90, cpu, rss] = self.raw();
        [setup_s * f, rps / f, p50 * f, p90 * f, cpu * f, rss]
    }
}

/// One timed pass over the request list.
pub(crate) struct Round {
    pub wall_s: f64,
    pub cpu_ms: f64,
    /// Latency of each request that delivered the expected result.
    pub latencies_ms: Vec<f64>,
    pub failed: u64,
    /// Largest `ExecMetrics::peak_bytes` a server reply carried; zero
    /// where no server is involved.
    pub reply_peak_bytes: usize,
}

/// Wall and CPU time of `f`.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let cpu = sysinfo::process_cpu_ms();
    let started = Instant::now();
    let out = f();
    let wall_s = started.elapsed().as_secs_f64();
    (out, wall_s, sysinfo::process_cpu_ms() - cpu)
}

/// Median of a sample; zero for an empty one.
pub(crate) fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of a sorted sample.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Build the system `SETUP_REPS` times; keep the last and report the
/// median time. Earlier builds are dropped before the next starts, so
/// they do not add to peak memory.
fn set_up<T>(build: impl Fn() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let started = Instant::now();
        state = Some(build());
        times.push(started.elapsed().as_secs_f64());
    }
    (state.expect("SETUP_REPS is at least one"), median(&times))
}

/// The first request of each class, in order of appearance: the warm-up
/// that belongs to set-up.
pub(crate) fn one_per_class(reqs: &[Request]) -> Vec<&Request> {
    let mut seen = Vec::new();
    reqs.iter()
        .filter(|r| {
            let new = !seen.contains(&r.class);
            seen.push(r.class);
            new
        })
        .collect()
}

/// Run whole rounds until the next one would overrun `seconds`, with a
/// sample of the calibration kernel before the first and after each.
/// Returns the rounds and the median sample in milliseconds.
fn measure(seconds: f64, mut round: impl FnMut() -> Round) -> (Vec<Round>, f64) {
    let kernel = Kernel::new();
    let started = Instant::now();
    let mut rounds = Vec::new();
    let mut kernel_ms = vec![kernel.sample()];
    loop {
        let before = started.elapsed().as_secs_f64();
        rounds.push(round());
        kernel_ms.push(kernel.sample());
        let after = started.elapsed().as_secs_f64();
        if after + (after - before) > seconds {
            return (rounds, median(&kernel_ms));
        }
    }
}

// ---------------------------------------------------------------------
// In-process SQL workloads: share-batch, opt-heavy, no-share.

pub(crate) fn build_session(reqs: &[Request]) -> Session {
    let session = Session::new(generate());
    for r in one_per_class(reqs) {
        session.query(&r.sql).expect("warm-up request");
    }
    session
}

/// Results of every request under the session's configuration.
pub(crate) fn run_all(session: &Session, reqs: &[Request]) -> Vec<Vec<ResultSet>> {
    reqs.iter()
        .map(|r| {
            session
                .query(&r.sql)
                .unwrap_or_else(|e| panic!("{} request failed: {e}", r.class))
                .results
        })
        .collect()
}

pub(crate) fn session_round(
    session: &Session,
    reqs: &[Request],
    expected: &[Fingerprint],
) -> Round {
    let mut latencies_ms = Vec::with_capacity(reqs.len());
    let mut failed = 0;
    let ((), wall_s, cpu_ms) = timed(|| {
        for (r, want) in reqs.iter().zip(expected) {
            let started = Instant::now();
            let out = session.query(&r.sql);
            let ms = started.elapsed().as_secs_f64() * 1e3;
            match out {
                Ok(out) if check::fingerprint(&out.results) == *want => latencies_ms.push(ms),
                _ => failed += 1,
            }
        }
    });
    Round {
        wall_s,
        cpu_ms,
        latencies_ms,
        failed,
        reply_peak_bytes: 0,
    }
}

/// Compare the reference results with the no-CSE arm on the same
/// catalog; returns one message per request that differs.
pub(crate) fn no_cse_problems(
    catalog: &Catalog,
    reqs: &[Request],
    reference: &[Vec<ResultSet>],
) -> Vec<String> {
    let plain = Session::with_config(catalog.clone(), CseConfig::no_cse());
    reqs.iter()
        .zip(reference)
        .enumerate()
        .filter_map(|(i, (r, want))| match plain.query(&r.sql) {
            Ok(out) if check::same_results(&out.results, want) => None,
            Ok(_) => Some(format!(
                "request {i} ({}) differs from its no-CSE results",
                r.class
            )),
            Err(e) => Some(format!(
                "request {i} ({}) failed without CSEs: {e}",
                r.class
            )),
        })
        .collect()
}

fn golden_problems(workload: &str, seed: u64, entries: &[(&str, Fingerprint)]) -> Vec<String> {
    if seed == check::GOLDEN_SEED {
        check::golden_mismatches(workload, entries)
    } else {
        Vec::new()
    }
}

/// Class and fingerprint of each request, as the golden file lists them.
pub(crate) fn golden_entries<'a>(
    reqs: &'a [Request],
    fingerprints: &[Fingerprint],
) -> Vec<(&'a str, Fingerprint)> {
    reqs.iter()
        .map(|r| r.class)
        .zip(fingerprints.iter().copied())
        .collect()
}

// ---------------------------------------------------------------------
// serve-mix: the same requests through the batch server.

pub(crate) struct Served {
    pub session: Session,
    pub server: Mutex<Server>,
    pub clients: usize,
}

pub(crate) fn build_served(reqs: &[Request], workers: usize) -> Served {
    let session = Session::new(generate());
    let server = Server::new(
        Arc::new(session.catalog().clone()),
        ServerConfig {
            workers,
            admit: AdmitPolicy::Block,
            deadline: None,
            mem_budget: None,
            ..ServerConfig::default()
        },
    );
    for r in one_per_class(reqs) {
        let ticket = server
            .submit(&r.sql)
            .expect("blocking admission never sheds");
        assert!(
            ticket.wait().is_done(),
            "warm-up request through the server"
        );
    }
    Served {
        session,
        server: Mutex::new(server),
        clients: workers,
    }
}

/// One closed-loop round: each client takes the next request, submits it
/// and waits for its reply before taking another. `Server` is not `Sync`,
/// so a client holds the lock to submit and waits outside it.
pub(crate) fn served_round(served: &Served, reqs: &[Request], expected: &[Fingerprint]) -> Round {
    let next = AtomicUsize::new(0);
    let client = || {
        let mut latencies_ms = Vec::new();
        let mut failed = 0u64;
        let mut peak_bytes = 0;
        loop {
            // Relaxed: the counter hands out indices and publishes nothing.
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(r) = reqs.get(i) else {
                return (latencies_ms, failed, peak_bytes);
            };
            let started = Instant::now();
            let ticket = served
                .server
                .lock()
                .expect("no client panics while holding the server")
                .submit(&r.sql);
            let outcome = ticket.map(|t| t.wait());
            let ms = started.elapsed().as_secs_f64() * 1e3;
            match outcome {
                Ok(Outcome::Done(reply)) if check::fingerprint(&reply.results) == expected[i] => {
                    latencies_ms.push(ms);
                    peak_bytes = peak_bytes.max(reply.metrics.peak_bytes);
                }
                _ => failed += 1,
            }
        }
    };
    let (per_client, wall_s, cpu_ms) = timed(|| {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..served.clients).map(|_| s.spawn(client)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect::<Vec<_>>()
        })
    });
    Round {
        wall_s,
        cpu_ms,
        latencies_ms: per_client
            .iter()
            .flat_map(|c| c.0.iter().copied())
            .collect(),
        failed: per_client.iter().map(|c| c.1).sum(),
        reply_peak_bytes: per_client.iter().map(|c| c.2).max().unwrap_or(0),
    }
}

// ---------------------------------------------------------------------
// view-maint: inserts that maintain the three views, and view reads.

/// The base catalog with the three views created.
pub(crate) fn build_views(ops: &[MaintOp]) -> Catalog {
    let mut session = Session::new(generate());
    for (name, definition) in requests::VIEWS {
        session
            .create_materialized_view(name, definition)
            .expect("create view");
    }
    let base = session.catalog().clone();
    // Warm-up: the first insert and the first read, on a catalog of their own.
    let first_read = ops.iter().position(|op| matches!(op, MaintOp::Read(_)));
    let warm_up = [Some(0), first_read];
    for op in warm_up.iter().flatten().map(|&i| &ops[i]) {
        match op {
            MaintOp::Insert(rows) => drop(
                session
                    .insert("customer", rows.clone())
                    .expect("warm-up insert"),
            ),
            MaintOp::Read(r) => drop(session.query(&r.sql).expect("warm-up read")),
        }
    }
    base
}

/// What a `view-maint` round left behind, for the checks.
pub(crate) struct MaintResults {
    pub reads: Vec<Vec<ResultSet>>,
    /// Stored rows of each view after the last insert, in `VIEWS` order.
    pub views: Vec<Vec<Row>>,
    /// Views that differ from recomputing their definition.
    pub stale_views: Vec<&'static str>,
}

/// One round on a fresh clone of `base`. Only the inserts and reads are
/// timed; cloning the catalog and recomputing the views are not.
pub(crate) fn maint_round(
    base: &Catalog,
    cfg: &CseConfig,
    ops: &[MaintOp],
    expected_reads: Option<&[Fingerprint]>,
) -> (Round, MaintResults) {
    let mut session = Session::with_config(base.clone(), cfg.clone());
    let mut latencies_ms = Vec::with_capacity(ops.len());
    let mut failed = 0;
    let mut reads = Vec::new();
    let ((), wall_s, cpu_ms) = timed(|| {
        for op in ops {
            match op {
                MaintOp::Insert(rows) => {
                    let rows = rows.clone();
                    let started = Instant::now();
                    let out = session.insert("customer", rows);
                    let ms = started.elapsed().as_secs_f64() * 1e3;
                    match out {
                        Ok(_) => latencies_ms.push(ms),
                        Err(_) => failed += 1,
                    }
                }
                MaintOp::Read(r) => {
                    let started = Instant::now();
                    let out = session.query(&r.sql);
                    let ms = started.elapsed().as_secs_f64() * 1e3;
                    let want = expected_reads.map(|e| e[reads.len()]);
                    match out {
                        Ok(out) if want.is_none_or(|w| w == check::fingerprint(&out.results)) => {
                            latencies_ms.push(ms);
                            reads.push(out.results);
                        }
                        _ => {
                            failed += 1;
                            reads.push(Vec::new());
                        }
                    }
                }
            }
        }
    });
    let mut views = Vec::new();
    let mut stale_views = Vec::new();
    for (name, definition) in requests::VIEWS {
        let stored = session
            .catalog()
            .table(name)
            .expect("view table")
            .rows()
            .to_vec();
        let fresh = session.query(definition).expect("recompute view");
        if !check::view_matches(&stored, &fresh.results[0]) {
            stale_views.push(name);
        }
        views.push(stored);
    }
    (
        Round {
            wall_s,
            cpu_ms,
            latencies_ms,
            failed,
            reply_peak_bytes: 0,
        },
        MaintResults {
            reads,
            views,
            stale_views,
        },
    )
}

/// Golden entries of a `view-maint` round: each read, then each view.
pub(crate) fn maint_golden_entries(results: &MaintResults) -> Vec<(&'static str, Fingerprint)> {
    let reads = results
        .reads
        .iter()
        .map(|r| ("view-read", check::fingerprint(r)));
    let views = requests::VIEWS
        .iter()
        .zip(&results.views)
        .map(|((name, _), rows)| (*name, check::fingerprint_rows(rows)));
    reads.chain(views).collect()
}

/// Compare a default-configuration round with the same round under
/// `no_cse`.
pub(crate) fn maint_no_cse_problems(
    with_cse: &MaintResults,
    without: &MaintResults,
) -> Vec<String> {
    let mut problems = Vec::new();
    for (i, (a, b)) in with_cse.reads.iter().zip(&without.reads).enumerate() {
        if !check::same_results(a, b) {
            problems.push(format!("view read {i} differs from its no-CSE result"));
        }
    }
    for (((name, _), a), b) in requests::VIEWS
        .iter()
        .zip(&with_cse.views)
        .zip(&without.views)
    {
        if !check::view_matches(a, &ResultSet::new(Vec::new(), b.clone())) {
            problems.push(format!("view {name} differs from its no-CSE maintenance"));
        }
    }
    for name in with_cse.stale_views.iter().chain(&without.stale_views) {
        problems.push(format!(
            "view {name} differs from recomputing its definition"
        ));
    }
    problems
}

/// Customers in the generated catalog; fixed by the scale factor.
pub(crate) fn customer_count() -> i64 {
    cse_tpch::TpchConfig::new(SF).rows(cse_tpch::TpchTable::Customer) as i64
}

// ---------------------------------------------------------------------

/// What a workload's reference pass produced and what its checks found.
struct Checked {
    requests_per_round: usize,
    setup_s: f64,
    rounds: Vec<Round>,
    kernel_ms: f64,
    peak_rss_mb: f64,
    problems: Vec<String>,
}

/// The steps every SQL workload shares once it is set up: the reference
/// pass, the timed rounds and the checks. `session` answers the requests
/// in process; `round` runs one timed pass against the fingerprints of
/// the reference results.
fn measure_sql(
    workload: &str,
    seed: u64,
    seconds: f64,
    reqs: &[Request],
    setup_s: f64,
    session: &Session,
    round: impl Fn(&[Fingerprint]) -> Round,
) -> Checked {
    let reference = run_all(session, reqs);
    let expected: Vec<Fingerprint> = reference.iter().map(|r| check::fingerprint(r)).collect();
    let (rounds, kernel_ms) = measure(seconds, || round(&expected));
    let peak_rss_mb = sysinfo::peak_rss_mb();
    let mut problems = no_cse_problems(session.catalog(), reqs, &reference);
    problems.extend(golden_problems(
        workload,
        seed,
        &golden_entries(reqs, &expected),
    ));
    Checked {
        requests_per_round: reqs.len(),
        setup_s,
        rounds,
        kernel_ms,
        peak_rss_mb,
        problems,
    }
}

fn run_sql(workload: &str, seed: u64, seconds: f64) -> Checked {
    let reqs = requests::sql_round(workload, seed);
    if workload == "serve-mix" {
        let workers = serve_workers();
        let (served, setup_s) = set_up(|| build_served(&reqs, workers));
        // The reference is what the same SQL returns in process.
        measure_sql(
            workload,
            seed,
            seconds,
            &reqs,
            setup_s,
            &served.session,
            |expected| served_round(&served, &reqs, expected),
        )
    } else {
        let (session, setup_s) = set_up(|| build_session(&reqs));
        measure_sql(
            workload,
            seed,
            seconds,
            &reqs,
            setup_s,
            &session,
            |expected| session_round(&session, &reqs, expected),
        )
    }
}

fn run_maint(workload: &str, seed: u64, seconds: f64) -> Checked {
    let ops = requests::maint_round(seed, customer_count());
    let (base, setup_s) = set_up(|| build_views(&ops));
    let default = CseConfig::default();
    let (_, reference) = maint_round(&base, &default, &ops, None);
    let expected: Vec<Fingerprint> = reference
        .reads
        .iter()
        .map(|r| check::fingerprint(r))
        .collect();
    let mut stale = Vec::new();
    let (rounds, kernel_ms) = measure(seconds, || {
        let (round, results) = maint_round(&base, &default, &ops, Some(&expected));
        stale.extend(results.stale_views);
        round
    });
    let peak_rss_mb = sysinfo::peak_rss_mb();
    let (_, without) = maint_round(&base, &CseConfig::no_cse(), &ops, None);
    let mut problems = maint_no_cse_problems(&reference, &without);
    problems.extend(
        stale
            .iter()
            .map(|v| format!("view {v} went stale in a timed round")),
    );
    problems.extend(golden_problems(
        workload,
        seed,
        &maint_golden_entries(&reference),
    ));
    Checked {
        requests_per_round: ops.len(),
        setup_s,
        rounds,
        kernel_ms,
        peak_rss_mb,
        problems,
    }
}

/// Run one workload untraced for about `seconds` seconds.
pub fn run(workload: &str, seed: u64, seconds: f64) -> EndToEnd {
    let checked = match workload {
        "share-batch" | "opt-heavy" | "no-share" | "serve-mix" => run_sql(workload, seed, seconds),
        "view-maint" => run_maint(workload, seed, seconds),
        other => unreachable!("main rejects unknown workload {other}"),
    };
    let rounds = &checked.rounds;
    let attempted = (rounds.len() * checked.requests_per_round) as u64;
    // A request that fails a check after the timed section was wrong in
    // every round it ran in; count it once.
    let failed = rounds.iter().map(|r| r.failed).sum::<u64>() + checked.problems.len() as u64;
    let mut latencies: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.latencies_ms.iter().copied())
        .collect();
    latencies.sort_by(f64::total_cmp);
    let rps: Vec<f64> = rounds
        .iter()
        .map(|r| r.latencies_ms.len() as f64 / r.wall_s)
        .collect();
    let cpu_ms: f64 = rounds.iter().map(|r| r.cpu_ms).sum();
    let samples = latencies.len();
    EndToEnd {
        kernel_ms: checked.kernel_ms,
        setup_s: checked.setup_s,
        throughput_rps: median(&rps),
        latency_p50_ms: if samples == 0 {
            0.0
        } else {
            percentile(&latencies, 0.50)
        },
        latency_p90_ms: if samples == 0 {
            0.0
        } else {
            percentile(&latencies, 0.90)
        },
        cpu_ms_per_req: cpu_ms / samples.max(1) as f64,
        peak_rss_mb: checked.peak_rss_mb,
        attempted,
        failed: failed.min(attempted),
        rounds: rounds.len(),
        requests_per_round: checked.requests_per_round,
        samples,
        problems: checked.problems,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let sample: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&sample, 0.50), 5.0);
        assert_eq!(percentile(&sample, 0.90), 9.0);
        assert_eq!(percentile(&sample, 1.0), 10.0);
        assert_eq!(percentile(&[3.0], 0.50), 3.0);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn measure_runs_whole_rounds_and_at_least_one() {
        let round = || Round {
            wall_s: 0.0,
            cpu_ms: 0.0,
            latencies_ms: Vec::new(),
            failed: 0,
            reply_peak_bytes: 0,
        };
        assert_eq!(measure(0.0, round).0.len(), 1);
    }
}
