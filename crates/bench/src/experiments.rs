//! Experiment drivers: one function per paper table/figure. Each returns
//! the measured outcomes so tests and the report binary share the same code
//! path.

use crate::harness::{self, RunOutcome};
use crate::workloads;
use cse_core::{create_materialized_view, maintain_insert, CseConfig, MaintenancePlans};
use cse_storage::testkit::TestRng;
use cse_storage::{Catalog, Row};
use cse_tpch::{generate_catalog, TpchConfig};
use std::time::{Duration, Instant};

/// Default scale factor for experiment runs; the paper uses SF=1, the
/// in-memory substitute defaults to a laptop-friendly SF (the *shape* of
/// the results is cardinality-ratio-driven, not absolute-size-driven).
pub const DEFAULT_SF: f64 = 0.01;

pub fn catalog(sf: f64) -> Catalog {
    generate_catalog(&TpchConfig::new(sf))
}

/// Table 1: the Example 1 batch (Q1, Q2, Q3).
pub fn table1(catalog: &Catalog) -> [RunOutcome; 3] {
    let out = harness::three_way(catalog, &workloads::table1_batch());
    harness::assert_results_agree(&out);
    out
}

/// Table 2: the batch with Q4 added (stacked CSEs).
pub fn table2(catalog: &Catalog) -> [RunOutcome; 3] {
    let out = harness::three_way(catalog, &workloads::table2_batch());
    harness::assert_results_agree(&out);
    out
}

/// Table 3: the nested query.
pub fn table3(catalog: &Catalog) -> [RunOutcome; 3] {
    let out = harness::three_way(catalog, workloads::NESTED);
    harness::assert_results_agree(&out);
    out
}

/// Table 4: two eight-table joins.
pub fn table4(catalog: &Catalog) -> [RunOutcome; 3] {
    let out = harness::three_way(catalog, &workloads::complex_join_batch());
    harness::assert_results_agree(&out);
    out
}

/// One point of Figure 8: batch of `n` similar queries, with and without
/// heuristic pruning, plus the no-CSE baseline.
pub struct ScaleupPoint {
    pub n: usize,
    pub no_cse: RunOutcome,
    pub cse: RunOutcome,
    pub cse_no_heuristics: RunOutcome,
}

/// Figure 8: scaleup over batch sizes 2..=10.
pub fn fig8(catalog: &Catalog, sizes: &[usize]) -> Vec<ScaleupPoint> {
    sizes
        .iter()
        .map(|&n| {
            let sql = workloads::scaleup_batch(n);
            let outcomes = harness::three_way(catalog, &sql);
            harness::assert_results_agree(&outcomes);
            let [no_cse, cse, cse_no_heuristics] = outcomes;
            ScaleupPoint {
                n,
                no_cse,
                cse,
                cse_no_heuristics,
            }
        })
        .collect()
}

/// §6.4 view maintenance outcome.
pub struct MaintenanceOutcome {
    pub config: &'static str,
    /// Summed over the inserts.
    pub maintain_time: Duration,
    /// Candidates and views of the last insert.
    pub candidates: usize,
    pub views: usize,
}

/// Rows per insert of the §6.4 experiment (the benchmark's `view-maint`
/// inserts as many).
const ROWS_PER_INSERT: usize = 50;

/// §6.4: create the three views, insert `insert_count` customers, 50 to an
/// insert, whose keys repeat existing ones (so every delta joins real
/// orders), and maintain the views with and without CSEs. Each arm keeps
/// one plan cache, so its first insert plans the batch and the others run
/// it. Returns (no-CSE, with-CSE) outcomes, each with the total over its
/// inserts; correctness is verified by comparing the refreshed view
/// contents.
pub fn view_maintenance(sf: f64, insert_count: usize) -> (MaintenanceOutcome, MaintenanceOutcome) {
    let run =
        |cfg: &CseConfig, name: &'static str| -> (MaintenanceOutcome, Vec<Vec<cse_storage::Row>>) {
            let mut catalog = catalog(sf);
            for (vname, def) in workloads::maintenance_views() {
                create_materialized_view(&mut catalog, vname, &def, cfg).expect("create view");
            }
            let inserts = returning_customers(&catalog, insert_count);
            let (mut maintain_time, mut candidates, mut views) = (Duration::ZERO, 0, 0);
            let mut plans = MaintenancePlans::new();
            for rows in inserts.chunks(ROWS_PER_INSERT) {
                let rows = rows.to_vec();
                let report = maintain_insert(&mut catalog, "customer", rows, cfg, &mut plans)
                    .expect("maintain");
                maintain_time += report.total_time;
                candidates = report.cse.candidates.len();
                views = report.views.len();
            }
            let contents: Vec<Vec<Row>> = workloads::maintenance_views()
                .iter()
                .map(|(vname, _)| {
                    let mut rows = catalog.table(vname).unwrap().rows();
                    rows.sort_by(|a, b| {
                        for (x, y) in a.iter().zip(b.iter()) {
                            let o = x.total_cmp(y);
                            if !o.is_eq() {
                                return o;
                            }
                        }
                        std::cmp::Ordering::Equal
                    });
                    rows
                })
                .collect();
            (
                MaintenanceOutcome {
                    config: name,
                    maintain_time,
                    candidates,
                    views,
                },
                contents,
            )
        };
    let (no, c_no) = run(&CseConfig::no_cse(), "No CSE");
    let (yes, c_yes) = run(&CseConfig::default(), "Using CSEs");
    // Refreshed contents must agree (FP tolerance on sums).
    for (a, b) in c_no.iter().zip(c_yes.iter()) {
        assert_eq!(a.len(), b.len(), "view row counts diverged");
        for (ra, rb) in a.iter().zip(b.iter()) {
            for (x, y) in ra.iter().zip(rb.iter()) {
                match (x.as_f64(), y.as_f64()) {
                    (Some(fx), Some(fy)) => {
                        assert!((fx - fy).abs() <= 1e-6 * fx.abs().max(fy.abs()).max(1.0))
                    }
                    _ => assert_eq!(x, y),
                }
            }
        }
    }
    (no, yes)
}

/// Fabricate `n` new customer rows with fresh keys.
pub fn new_customers(catalog: &Catalog, n: usize) -> Vec<Row> {
    use cse_tpch::rng::SplitMix64;
    use cse_tpch::text::CommentPool;
    let existing = catalog.table("customer").unwrap().row_count() as i64;
    let mut rng = SplitMix64::derive(0xfeed, "maintenance");
    let pool = CommentPool::new(0xfeed, 64);
    (0..n)
        .map(|i| {
            let key = existing + 1 + i as i64;
            let nation = rng.int_range(0, 24);
            cse_tpch::customer_row(key, nation, &mut rng, &pool)
        })
        .collect()
}

/// `n` new customer rows whose keys repeat existing ones, so a delta joins
/// real orders.
pub fn returning_customers(catalog: &Catalog, n: usize) -> Vec<Row> {
    let existing = catalog.table("customer").unwrap().row_count() as i64;
    let rows = new_customers(catalog, n).into_iter().enumerate();
    rows.map(|(i, r)| {
        let mut cells = r.to_vec();
        cells[0] = cse_storage::Value::Int(1 + (i as i64 * 7) % existing);
        cse_storage::row(cells)
    })
    .collect()
}

/// §6 overhead check: optimize a batch with no sharable subexpressions
/// with and without the CSE machinery; returns (off, on) outcomes — the
/// candidate count of the "on" run must be 0 and its optimization-time
/// overhead negligible.
pub fn overhead(catalog: &Catalog) -> (RunOutcome, RunOutcome) {
    let sql = workloads::no_sharing_batch();
    let off = harness::run(catalog, &sql, "No CSE", &CseConfig::no_cse());
    let on = harness::run(catalog, &sql, "Using CSEs", &CseConfig::default());
    assert_eq!(
        on.candidates, 0,
        "no-sharing batch must yield no candidates"
    );
    (off, on)
}

/// One operating point of the open-loop overload experiment: Poisson
/// arrivals at `multiplier` times the measured saturation throughput.
#[derive(Debug)]
pub struct OverloadPoint {
    pub multiplier: f64,
    /// Target arrival rate (requests/second) this point offered.
    pub offered_rps: f64,
    pub completed: u64,
    /// Completed but off a lower rung / with degradation events.
    pub degraded: u64,
    /// `SHED_MEMORY`: admission-time pressure sheds plus exhausted
    /// reservations.
    pub shed_memory: u64,
    /// `SHED_QUEUE_FULL` sheds at submit time.
    pub shed_queue: u64,
    /// `REQ_DEADLINE`: attempts past their deadline, retries exhausted.
    pub deadline_expired: u64,
    /// Completed requests per second of wall clock (the goodput curve the
    /// admission controller exists to defend).
    pub goodput_rps: f64,
    /// Latency percentiles over *completed* requests.
    pub p50: Duration,
    pub p99: Duration,
    /// Largest `ExecMetrics::peak_bytes` across completed requests.
    pub peak_bytes_max: usize,
}

/// The overload mix: mostly light single-statement queries with an
/// occasional heavy sharing-rich batch (the batch is what drives memory
/// reservations up). Deterministic for a fixed seed.
pub(crate) fn overload_requests(n: usize, seed: u64) -> Vec<String> {
    let mut rng = TestRng::new(seed ^ 0x6f76_6572_6c6f_6164); // "overload"
    let light = [
        "select c_mktsegment, count(*) as n from customer group by c_mktsegment".to_string(),
        "select o_orderstatus, sum(o_totalprice) as s from orders group by o_orderstatus"
            .to_string(),
        "select l_returnflag, sum(l_quantity) as q from lineitem group by l_returnflag".to_string(),
    ];
    let heavy = workloads::scaleup_batch(3);
    (0..n)
        .map(|_| {
            if rng.chance(0.125) {
                heavy.clone()
            } else {
                rng.pick(&light).clone()
            }
        })
        .collect()
}

/// Closed-loop calibration: measure the server's saturation throughput on
/// the overload mix (blocking admission, no deadline, no governor — pure
/// capacity).
fn overload_saturation_rps(catalog: &Catalog, workers: usize, seed: u64) -> f64 {
    use cse_serve::{AdmitPolicy, Outcome, Server, ServerConfig};
    use std::sync::Arc;

    let n = 96;
    let sqls = overload_requests(n, seed ^ 1);
    let mut server = Server::new(
        Arc::new(catalog.clone()),
        ServerConfig {
            workers,
            queue_capacity: 16,
            admit: AdmitPolicy::Block,
            ..ServerConfig::default()
        },
    );
    let started = Instant::now();
    let tickets: Vec<_> = sqls
        .iter()
        .map(|sql| server.submit(sql).expect("blocking admission never sheds"))
        .collect();
    for t in tickets {
        assert!(
            matches!(t.wait(), Outcome::Done(_)),
            "calibration run must complete every request"
        );
    }
    let elapsed = started.elapsed().as_secs_f64().max(1e-6);
    server.drain();
    n as f64 / elapsed
}

/// The open-loop overload experiment: Poisson arrivals (inter-arrival
/// `-ln(1-u)/rate` off the testkit PRNG) at 1x/2x/4x the calibrated
/// saturation rate, against a shedding server with an attempt deadline
/// and a global memory budget. Arrivals do **not** wait for replies —
/// that is what makes saturation observable instead of self-throttling.
///
/// The harness asserts the robustness contract (every request reaches
/// exactly one terminal outcome; rejections only carry `SHED_MEMORY`,
/// `SHED_QUEUE_FULL` or `REQ_DEADLINE`; zero worker panics) and returns
/// the measured points; callers decide what to print or persist.
pub fn overload(catalog: &Catalog, requests: usize, seed: u64) -> Vec<OverloadPoint> {
    use cse_serve::{AdmitPolicy, Outcome, RejectReason, Server, ServerConfig};
    use std::sync::Arc;

    let workers = 6;
    let shared = Arc::new(catalog.clone());
    let saturation = overload_saturation_rps(catalog, workers, seed);
    [1.0, 2.0, 4.0]
        .iter()
        .map(|&multiplier| {
            let rate = (saturation * multiplier).max(1.0);
            let sqls = overload_requests(requests, seed);
            let mut rng = TestRng::new(seed ^ (multiplier as u64) << 32);
            let mut server = Server::new(
                Arc::clone(&shared),
                ServerConfig {
                    workers,
                    queue_capacity: 16,
                    admit: AdmitPolicy::Shed,
                    deadline: Some(Duration::from_millis(250)),
                    max_retries: 1,
                    // Tight enough that concurrent heavy batches contend:
                    // six workers' grown grants sit near the Elevated
                    // threshold, so bursts of heavy batches push the pool
                    // into Critical and shed.
                    mem_budget: Some(6 << 20),
                    mem_grant: 256 * 1024,
                    ..ServerConfig::default()
                },
            );
            let started = Instant::now();
            let mut next_at = Duration::ZERO;
            let mut tickets = Vec::with_capacity(requests);
            let mut submit_rejects: Vec<RejectReason> = Vec::new();
            for sql in &sqls {
                // Poisson process: exponential inter-arrival times.
                let u = rng.range_f64(0.0, 1.0).min(0.999_999);
                next_at += Duration::from_secs_f64(-(1.0 - u).ln() / rate);
                let now = started.elapsed();
                if next_at > now {
                    std::thread::sleep(next_at - now);
                }
                match server.submit(sql) {
                    Ok(t) => tickets.push(t),
                    Err(r) => submit_rejects.push(r.reason),
                }
            }
            let mut latencies: Vec<Duration> = Vec::new();
            let mut peak_bytes_max = 0usize;
            let mut degraded = 0u64;
            let mut reasons: Vec<RejectReason> = submit_rejects;
            for t in tickets {
                match t.wait() {
                    Outcome::Done(reply) => {
                        peak_bytes_max = peak_bytes_max.max(reply.metrics.peak_bytes);
                        if !reply.events.is_empty() {
                            degraded += 1;
                        }
                        latencies.push(reply.latency);
                    }
                    Outcome::Rejected(r) => reasons.push(r.reason),
                }
            }
            let wall = started.elapsed().as_secs_f64().max(1e-6);
            let stats = server.drain();
            let completed = latencies.len() as u64;
            assert_eq!(
                completed + reasons.len() as u64,
                requests as u64,
                "every request reaches exactly one terminal outcome"
            );
            assert_eq!(stats.worker_panics, 0, "overload must not panic workers");
            let count = |r: RejectReason| reasons.iter().filter(|&&x| x == r).count() as u64;
            let shed_memory = count(RejectReason::ShedMemory);
            let shed_queue = count(RejectReason::ShedQueueFull);
            let deadline_expired = count(RejectReason::ReqDeadline);
            assert_eq!(
                reasons.len() as u64,
                shed_memory + shed_queue + deadline_expired,
                "overload rejections must carry a load-shedding reason code, got {reasons:?}"
            );
            latencies.sort();
            let pct = |p: f64| -> Duration {
                if latencies.is_empty() {
                    return Duration::ZERO;
                }
                latencies[((latencies.len() as f64 - 1.0) * p).round() as usize]
            };
            OverloadPoint {
                multiplier,
                offered_rps: rate,
                completed,
                degraded,
                shed_memory,
                shed_queue,
                deadline_expired,
                goodput_rps: completed as f64 / wall,
                p50: pct(0.50),
                p99: pct(0.99),
                peak_bytes_max,
            }
        })
        .collect()
}

/// One measured configuration of the durability bench: a mutation log of
/// `mutations` records committed at `group_commit` cadence (with or
/// without snapshots), then recovered from scratch.
#[derive(Debug)]
pub struct RecoveryPoint {
    pub mutations: usize,
    pub group_commit: usize,
    pub snapshot_every: u64,
    /// Per-mutation apply cost with no durability at all (the baseline
    /// every overhead figure is relative to).
    pub plain_ns_per_mutation: f64,
    /// Per-mutation apply cost through the journal.
    pub commit_ns_per_mutation: f64,
    pub wal_bytes: usize,
    pub replayed: usize,
    pub recovery_ms: f64,
    /// Records replayed per second during recovery.
    pub replay_rps: f64,
}

/// The mutation workload the durability bench journals: a handful of base
/// tables, then a long stream of single-row deltas round-robined across
/// them — the catalog-mutation shape a serving deployment actually
/// produces (views refreshing, maintenance trickle), not pathological
/// bulk registration.
fn recovery_workload(n: usize) -> Vec<cse_storage::CatalogMutation> {
    use cse_storage::delta::{DeltaAction, DeltaTable};
    use cse_storage::schema::Schema;
    use cse_storage::table::{row, Table};
    use cse_storage::value::{DataType, Value};
    const BASES: usize = 8;
    let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Str)]);
    let mut out = Vec::with_capacity(n);
    for b in 0..BASES.min(n) {
        let mut t = Table::new(format!("base{b}"), schema.clone());
        t.push(row(vec![Value::Int(b as i64), Value::str("seed")]))
            .expect("seed row");
        out.push(cse_storage::CatalogMutation::RegisterTable { table: t });
    }
    let mut i = out.len();
    while i < n {
        let b = i % BASES;
        let mut delta = DeltaTable::new(format!("base{b}"), &schema);
        delta
            .record(
                DeltaAction::Insert,
                row(vec![Value::Int(i as i64), Value::str(format!("r{i}"))]),
            )
            .expect("delta row");
        out.push(cse_storage::CatalogMutation::ApplyDelta { delta });
        i += 1;
    }
    out
}

/// Durability bench: commit-latency overhead of the WAL (per group-commit
/// cadence, against the journal-free baseline), WAL size, and recovery
/// time / replay throughput as a function of log length. Runs on the
/// in-memory simulated store, so the overhead measured is the engine's
/// own (encode + checksum + frame + apply), not the host's fsync latency.
pub fn recovery(log_lengths: &[usize]) -> Vec<RecoveryPoint> {
    use cse_durable::{recover, DurableCatalog, DurableOptions, SimStore};
    use cse_govern::FailpointRegistry;

    let mut points = Vec::new();
    for &n in log_lengths {
        let workload = recovery_workload(n);

        // Baseline: the same mutations against a bare catalog.
        let mut plain = cse_storage::Catalog::new();
        let t = Instant::now();
        for m in &workload {
            plain.apply_mutation(m).expect("workload applies");
        }
        let plain_ns = t.elapsed().as_nanos() as f64 / n as f64;

        for (group_commit, snapshot_every) in [(1usize, 0u64), (8, 0), (64, 0), (8, (n / 4) as u64)]
        {
            let store = SimStore::new();
            let (mut dc, _) = DurableCatalog::open(
                store.clone(),
                DurableOptions {
                    group_commit,
                    snapshot_every,
                },
                FailpointRegistry::disabled(),
            )
            .expect("open empty store");
            let t = Instant::now();
            for m in &workload {
                dc.apply(m).expect("journaled apply");
            }
            dc.flush().expect("final barrier");
            let commit_ns = t.elapsed().as_nanos() as f64 / n as f64;
            let wal_bytes = store.wal_len();
            drop(dc);

            let t = Instant::now();
            let (_, info) =
                recover(&store, &FailpointRegistry::disabled()).expect("clean recovery");
            let recovery_s = t.elapsed().as_secs_f64().max(1e-9);
            points.push(RecoveryPoint {
                mutations: n,
                group_commit,
                snapshot_every,
                plain_ns_per_mutation: plain_ns,
                commit_ns_per_mutation: commit_ns,
                wal_bytes,
                replayed: info.replayed,
                recovery_ms: recovery_s * 1e3,
                replay_rps: info.replayed as f64 / recovery_s,
            });
        }
    }
    points
}
